package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteCSV serializes the dataset. Each record is the feature values
// followed, for labeled datasets, by the integer label in the last column.
func (d *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	defer cw.Flush()
	dim := d.Dim()
	rec := make([]string, dim, dim+1)
	for i, row := range d.X {
		rec = rec[:dim]
		for j, v := range row {
			rec[j] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if d.Y != nil {
			rec = append(rec, strconv.Itoa(d.Y[i]))
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("dataset %s: write row %d: %w", d.Name, i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a dataset written by WriteCSV (or a real dataset exported
// to the same shape). When labeled is true the last column is read as an
// integer class label.
//
//trimlint:allow deadexport staged: only tests call it (TestCSVRoundtrip, TestCSVUnlabeledRoundtrip, TestReadCSVErrors)
func ReadCSV(r io.Reader, name string, labeled bool, clusters int) (*Dataset, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // validated manually for a better error message
	d := &Dataset{Name: name, Clusters: clusters}
	if labeled {
		d.Y = []int{}
	}
	dim := -1
	for i := 0; ; i++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset %s: read row %d: %w", name, i, err)
		}
		nf := len(rec)
		if labeled {
			nf--
		}
		if nf < 1 {
			return nil, fmt.Errorf("dataset %s: row %d has no features", name, i)
		}
		if dim == -1 {
			dim = nf
		} else if nf != dim {
			return nil, fmt.Errorf("dataset %s: row %d has %d features, want %d", name, i, nf, dim)
		}
		row := make([]float64, dim)
		for j := 0; j < dim; j++ {
			v, err := strconv.ParseFloat(rec[j], 64)
			if err != nil {
				return nil, fmt.Errorf("dataset %s: row %d col %d: %w", name, i, j, err)
			}
			row[j] = v
		}
		d.X = append(d.X, row)
		if labeled {
			label, err := strconv.Atoi(rec[dim])
			if err != nil {
				return nil, fmt.Errorf("dataset %s: row %d label: %w", name, i, err)
			}
			d.Y = append(d.Y, label)
		}
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}
