package collect

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/rowstore"
	"repro/internal/stats"
)

// Every engine refuses at validate time the inputs its workers' configure
// refuses, with an error that names the field: a ragged, short-labeled or
// non-finite row dataset, a NaN in the scalar reference or the LDP input
// pool, and a summary budget no stream can be built with. Otherwise the
// in-process engines panic mid-game or play on NaN, and the cluster
// engines lose every worker at round 0.
func TestEnginesRefuseWhatWorkersRefuse(t *testing.T) {
	gen := &ShardGen{MasterSeed: 5}
	rowEngines := []struct {
		name string
		run  func(RowConfig) error
	}{
		{"RunRows", func(c RowConfig) error {
			c.Rng = stats.NewRand(1)
			_, err := RunRows(c)
			return err
		}},
		{"RunShardedRows", func(c RowConfig) error {
			_, err := RunShardedRows(RowShardedConfig{RowConfig: c, Shards: 2, Gen: gen})
			return err
		}},
		{"RunClusterRows", func(c RowConfig) error {
			_, err := RunClusterRows(RowClusterConfig{RowConfig: c, Transport: cluster.NewLoopback(2), Gen: gen})
			return err
		}},
	}
	rowFaults := []struct {
		name  string
		spoil func(*dataset.Dataset)
	}{
		{"ragged", func(d *dataset.Dataset) {
			last := len(d.X[1]) - 1
			d.X[0] = append(d.X[0][:len(d.X[0]):len(d.X[0])], d.X[1][last])
			d.X[1] = d.X[1][:last]
		}},
		{"short labels", func(d *dataset.Dataset) { d.Y = d.Y[:len(d.Y)-5] }},
		{"NaN coordinate", func(d *dataset.Dataset) { d.X[3][2] = math.NaN() }},
	}
	for _, fault := range rowFaults {
		for _, e := range rowEngines {
			cfg := rowsPipelineConfig(t, 71)
			cfg.Data = dataset.VehicleN(stats.NewRand(72), 400)
			fault.spoil(cfg.Data)
			expectRefusal(t, fault.name+"/"+e.name, "Data", func() error { return e.run(cfg) })
		}
	}

	scalarEngines := []struct {
		name string
		run  func(Config) error
	}{
		{"Run", func(c Config) error { _, err := Run(c); return err }},
		{"RunSharded", func(c Config) error {
			_, err := RunSharded(ShardedConfig{Config: c, Shards: 2, Gen: gen})
			return err
		}},
		{"RunCluster", func(c Config) error {
			_, err := RunCluster(ClusterConfig{Config: c, Transport: cluster.NewLoopback(2), Gen: gen})
			return err
		}},
	}
	for _, e := range scalarEngines {
		cfg := baseConfig(t, 73)
		cfg.Reference[7] = math.NaN()
		expectRefusal(t, "NaN reference/"+e.name, "Reference", func() error { return e.run(cfg) })
	}

	ldpEngines := []struct {
		name string
		run  func(LDPConfig) error
	}{
		{"RunLDP", func(c LDPConfig) error {
			c.Rng = stats.NewRand(2)
			_, err := RunLDP(c)
			return err
		}},
		{"RunShardedLDP", func(c LDPConfig) error {
			_, err := RunShardedLDP(LDPShardedConfig{LDPConfig: c, Shards: 2, Gen: gen})
			return err
		}},
		{"RunClusterLDP", func(c LDPConfig) error {
			_, err := RunClusterLDP(LDPClusterConfig{LDPConfig: c, Transport: cluster.NewLoopback(2), Gen: gen})
			return err
		}},
	}
	for _, e := range ldpEngines {
		cfg := shardLocalLDPConfig(t)
		cfg.Inputs[7] = math.NaN()
		expectRefusal(t, "NaN input/"+e.name, "Inputs", func() error { return e.run(cfg) })
	}

	// A summary budget below 10⁻⁶, which every worker refuses at configure,
	// and a NaN one, which fails neither comparison of a range check. The
	// in-process LDP game builds no summary and takes no budget.
	ldpBudgetEngines := []struct {
		name string
		run  func(LDPConfig, float64) error
	}{
		{"RunShardedLDP", func(c LDPConfig, eps float64) error {
			_, err := RunShardedLDP(LDPShardedConfig{LDPConfig: c, SummaryEpsilon: eps, Shards: 2, Gen: gen})
			return err
		}},
		{"RunClusterLDP", func(c LDPConfig, eps float64) error {
			_, err := RunClusterLDP(LDPClusterConfig{LDPConfig: c, SummaryEpsilon: eps, Transport: cluster.NewLoopback(2), Gen: gen})
			return err
		}},
	}
	for _, eps := range []float64{1e-9, math.NaN()} {
		name := fmt.Sprintf("SummaryEpsilon %v/", eps)
		for _, e := range rowEngines {
			cfg := rowsPipelineConfig(t, 71)
			cfg.SummaryEpsilon = eps
			expectRefusal(t, name+e.name, "SummaryEpsilon", func() error { return e.run(cfg) })
		}
		for _, e := range scalarEngines {
			cfg := baseConfig(t, 73)
			cfg.SummaryEpsilon = eps
			expectRefusal(t, name+e.name, "SummaryEpsilon", func() error { return e.run(cfg) })
		}
		for _, e := range ldpBudgetEngines {
			cfg := shardLocalLDPConfig(t)
			expectRefusal(t, name+e.name, "SummaryEpsilon", func() error { return e.run(cfg, eps) })
		}
	}
}

// expectRefusal runs play and fails unless it returns an error naming
// field; a panic is reported as a failure of its own case.
func expectRefusal(t *testing.T, name, field string, play func() error) {
	t.Helper()
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("panic: %v", p)
			}
		}()
		if err := play(); err != nil {
			return err
		}
		return fmt.Errorf("accepted")
	}()
	if !strings.Contains(err.Error(), "collect: "+field) {
		t.Errorf("%s: %v, want a refusal naming %s", name, err, field)
	}
}

// A configure every worker refuses for a reason validation cannot see —
// here each worker's kept-row pool fails to open — surfaces as the fleet
// loss it is, with the workers' own errors in it: the cluster runner's
// error names the reason, and wraps it.
func TestAllWorkersLostCarriesTheirErrors(t *testing.T) {
	const workers = 3
	errOpen := errors.New("spill directory is read-only")
	lb := cluster.NewLoopbackPrepared(workers, func(w *cluster.Worker) {
		w.SetPoolOpener(func() (rowstore.Pool, error) { return nil, errOpen })
	})
	_, err := RunClusterRows(RowClusterConfig{
		RowConfig: rowsPipelineConfig(t, 97), Transport: lb, Gen: &ShardGen{MasterSeed: 98},
	})
	if err == nil {
		t.Fatal("every worker refused configure, yet the game ran")
	}
	if !strings.Contains(err.Error(), "all cluster workers lost by round 0") {
		t.Errorf("error %q does not report the fleet loss", err)
	}
	if !errors.Is(err, errOpen) {
		t.Errorf("error %q does not wrap the workers' refusal", err)
	}
	for w := 0; w < workers; w++ {
		if want := fmt.Sprintf("cluster: worker %d: %v", w, errOpen); !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name worker %d's refusal", err, w)
		}
	}
}
