package dataset

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/stats"
)

func TestControlShape(t *testing.T) {
	d := Control(stats.NewRand(1))
	if d.Len() != ControlSize {
		t.Errorf("Control instances = %d, want %d", d.Len(), ControlSize)
	}
	if d.Dim() != ControlFeatures {
		t.Errorf("Control features = %d, want %d", d.Dim(), ControlFeatures)
	}
	if d.Clusters != 6 {
		t.Errorf("Control clusters = %d, want 6", d.Clusters)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// 100 per class.
	counts := map[int]int{}
	for _, y := range d.Y {
		counts[y]++
	}
	for c := 0; c < 6; c++ {
		if counts[c] != 100 {
			t.Errorf("class %d has %d instances, want 100", c, counts[c])
		}
	}
}

func TestControlClassStructure(t *testing.T) {
	d := Control(stats.NewRand(2))
	// Increasing-trend series (class 2) must end higher than they start on
	// average; decreasing (class 3) must end lower.
	var incDelta, decDelta float64
	var nInc, nDec int
	for i, row := range d.X {
		delta := row[len(row)-1] - row[0]
		switch d.Y[i] {
		case 2:
			incDelta += delta
			nInc++
		case 3:
			decDelta += delta
			nDec++
		}
	}
	if incDelta/float64(nInc) < 5 {
		t.Errorf("increasing class mean delta = %v, want strongly positive", incDelta/float64(nInc))
	}
	if decDelta/float64(nDec) > -5 {
		t.Errorf("decreasing class mean delta = %v, want strongly negative", decDelta/float64(nDec))
	}
}

func TestVehicleShape(t *testing.T) {
	d := Vehicle(stats.NewRand(3))
	s := d.Summary()
	if s.Instances != 752 || s.Features != 18 || s.Clusters != 4 {
		t.Errorf("Vehicle summary = %+v", s)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLetterShape(t *testing.T) {
	d := LetterN(stats.NewRand(4), 2600)
	if d.Len() != 2600 || d.Dim() != 16 || d.Clusters != 26 {
		t.Errorf("Letter shape = %d×%d, %d clusters", d.Len(), d.Dim(), d.Clusters)
	}
	// Features must sit on the integer grid [0, 15].
	for _, row := range d.X {
		for _, v := range row {
			if v < 0 || v > 15 || v != math.Trunc(v) {
				t.Fatalf("Letter feature %v outside integer grid [0,15]", v)
			}
		}
	}
}

func TestTaxiShape(t *testing.T) {
	d := TaxiN(stats.NewRand(5), 50000)
	if d.Len() != 50000 || d.Dim() != 1 {
		t.Errorf("Taxi shape = %d×%d", d.Len(), d.Dim())
	}
	for _, row := range d.X {
		if row[0] < -1 || row[0] > 1 {
			t.Fatalf("Taxi value %v outside [-1,1]", row[0])
		}
	}
	// Multi-modality: evening rush (~18.5h ⇒ ≈0.54 normalized) should be a
	// denser region than early morning (~4h ⇒ ≈ -0.67).
	col, _ := d.Column(0)
	h, err := stats.FromSamples(col, -1, 1, 48)
	if err != nil {
		t.Fatal(err)
	}
	evening := h.Counts[h.BinOf(0.54)]
	earlyAM := h.Counts[h.BinOf(-0.67)]
	if evening <= earlyAM {
		t.Errorf("evening density %v not above early-morning %v", evening, earlyAM)
	}
}

func TestTaxiNormalization(t *testing.T) {
	if got := NormalizeTaxi(0); got != -1 {
		t.Errorf("NormalizeTaxi(0) = %v", got)
	}
	if got := NormalizeTaxi(TaxiMaxSec); got != 1 {
		t.Errorf("NormalizeTaxi(max) = %v", got)
	}
	if got := NormalizeTaxi(TaxiMaxSec / 2); got != 0 {
		t.Errorf("NormalizeTaxi(max/2) = %v", got)
	}
}

func TestCreditcardShape(t *testing.T) {
	d := CreditcardN(stats.NewRand(6), 20000)
	if d.Len() != 20000 || d.Dim() != 31 || d.Clusters != 4 {
		t.Errorf("Creditcard shape = %d×%d, %d clusters", d.Len(), d.Dim(), d.Clusters)
	}
	counts := map[int]int{}
	for _, y := range d.Y {
		counts[y]++
	}
	if counts[CCPublic] < 19000 {
		t.Errorf("public class %d, want dominant (>19000)", counts[CCPublic])
	}
	for _, c := range []int{CCFraud, CCPremium, CCHighValue} {
		if counts[c] == 0 {
			t.Errorf("class %d is empty", c)
		}
		if counts[c] > 100 {
			t.Errorf("class %d has %d instances, should be tiny", c, counts[c])
		}
	}
}

func TestCreditcardIsolation(t *testing.T) {
	d := CreditcardN(stats.NewRand(7), 5000)
	// Fraud and premium centroids must be far from the public centroid.
	centByClass := map[int][]float64{}
	nByClass := map[int]int{}
	for i, row := range d.X {
		c := d.Y[i]
		if centByClass[c] == nil {
			centByClass[c] = make([]float64, d.Dim())
		}
		stats.AddInPlace(centByClass[c], row)
		nByClass[c]++
	}
	for c, v := range centByClass {
		stats.Scale(v, 1/float64(nByClass[c]))
	}
	dFraud := stats.Euclidean(centByClass[CCFraud], centByClass[CCPublic])
	dPremium := stats.Euclidean(centByClass[CCPremium], centByClass[CCPublic])
	if dFraud < 30 || dPremium < 30 {
		t.Errorf("fraud/premium not isolated: %v, %v", dFraud, dPremium)
	}
}

func TestSummaryTableII(t *testing.T) {
	rng := stats.NewRand(8)
	want := []Info{
		{"CONTROL", 600, 60, 6},
		{"VEHICLE", 752, 18, 4},
		{"LETTER", 20000, 16, 26},
		{"TAXI", 1048575, 1, 1},
		{"CREDITCARD", 284807, 31, 4},
	}
	got := []Info{
		Control(rng).Summary(),
		Vehicle(rng).Summary(),
		LetterN(rng, LetterSize).Summary(),
		// Constructed at full scale but with cheap shortcuts below to keep
		// the test fast — Taxi and Creditcard sizes checked via constants.
	}
	for i, w := range got {
		if w != want[i] {
			t.Errorf("Table II row %d = %+v, want %+v", i, w, want[i])
		}
	}
	if TaxiSize != want[3].Instances || CreditcardSize != want[4].Instances {
		t.Error("full-size constants diverge from Table II")
	}
}

func TestColumn(t *testing.T) {
	d := VehicleN(stats.NewRand(9), 100)
	col, err := d.Column(0)
	if err != nil || len(col) != 100 {
		t.Fatalf("Column = %d values, err %v", len(col), err)
	}
	for i, v := range col {
		if v != d.X[i][0] {
			t.Fatalf("Column[%d] = %v, want %v", i, v, d.X[i][0])
		}
	}
	if _, err := d.Column(99); err == nil {
		t.Error("out-of-range column should error")
	}
}

func TestDistances(t *testing.T) {
	d := &Dataset{Name: "toy", X: [][]float64{{0, 0}, {4, 0}, {0, 4}, {4, 4}}}
	ds, err := d.Distances()
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(8) // centroid (2,2), all corners at distance 2√2
	for i, v := range ds {
		if math.Abs(v-want) > 1e-12 {
			t.Errorf("distance[%d] = %v, want %v", i, v, want)
		}
	}
}

func TestValidateCatchesBadData(t *testing.T) {
	d := &Dataset{Name: "bad", X: [][]float64{{1, 2}, {3}}}
	if err := d.Validate(); err == nil {
		t.Error("ragged rows should fail validation")
	}
	d2 := &Dataset{Name: "bad2", X: [][]float64{{math.NaN()}}}
	if err := d2.Validate(); err == nil {
		t.Error("NaN should fail validation")
	}
	d3 := &Dataset{Name: "bad3", X: [][]float64{{1}}, Y: []int{0, 1}}
	if err := d3.Validate(); err == nil {
		t.Error("label-length mismatch should fail validation")
	}
}

func TestCSVRoundtrip(t *testing.T) {
	d := VehicleN(stats.NewRand(11), 25)
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, "VEHICLE", true, 4)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != d.Len() || back.Dim() != d.Dim() {
		t.Fatalf("roundtrip shape %d×%d", back.Len(), back.Dim())
	}
	for i := range d.X {
		if back.Y[i] != d.Y[i] {
			t.Fatalf("label[%d] = %d, want %d", i, back.Y[i], d.Y[i])
		}
		for j := range d.X[i] {
			if back.X[i][j] != d.X[i][j] {
				t.Fatalf("X[%d][%d] = %v, want %v", i, j, back.X[i][j], d.X[i][j])
			}
		}
	}
}

func TestCSVUnlabeledRoundtrip(t *testing.T) {
	d := TaxiN(stats.NewRand(12), 10)
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, "TAXI", false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if back.Labeled() {
		t.Error("unlabeled roundtrip grew labels")
	}
	if back.Len() != 10 {
		t.Errorf("len = %d", back.Len())
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []struct {
		name, body string
		labeled    bool
	}{
		{"ragged", "1,2\n1\n", false},
		{"badfloat", "1,x\n", false},
		{"badlabel", "1,2,x\n", true},
		{"nofeatures", "7\n", true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ReadCSV(strings.NewReader(c.body), "t", c.labeled, 1); err == nil {
				t.Errorf("ReadCSV(%q) should error", c.body)
			}
		})
	}
}

func TestGaussianBlobsWeighted(t *testing.T) {
	d := gaussianBlobs(stats.NewRand(13), "w", 100, 2, 2, 10, 1, []float64{9, 1})
	counts := map[int]int{}
	for _, y := range d.Y {
		counts[y]++
	}
	if counts[0] != 90 || counts[1] != 10 {
		t.Errorf("weighted counts = %v, want 90/10", counts)
	}
	if d.Len() != 100 {
		t.Errorf("total = %d", d.Len())
	}
}
