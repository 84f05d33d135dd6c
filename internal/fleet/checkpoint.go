package fleet

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/wire"
)

// snapPattern names checkpoint files by the round they were cut after;
// lexicographic order equals round order, so the latest file is the last.
const snapPattern = "checkpoint-%06d.tq"

// Checkpointer persists coordinator snapshots every k rounds. Files are
// written atomically and durably (temp file, sync, rename, directory
// sync), so neither a coordinator killed mid-write nor a machine crash
// after Write returned leaves a partial newest checkpoint, and every
// checkpoint is retained — a resume can start from any of them, and the
// fault-tolerance experiments replay several.
type Checkpointer struct {
	dir   string
	every int
	buf   []byte
}

// NewCheckpointer builds a checkpointer writing into dir (created if
// missing) after every k-th round; k must be ≥ 1.
func NewCheckpointer(dir string, every int) (*Checkpointer, error) {
	if dir == "" {
		return nil, fmt.Errorf("fleet: checkpoint dir is empty")
	}
	if every < 1 {
		return nil, fmt.Errorf("fleet: checkpoint every %d rounds", every)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: checkpoint dir: %w", err)
	}
	return &Checkpointer{dir: dir, every: every}, nil
}

// Due reports whether a snapshot should be cut after the given round.
func (c *Checkpointer) Due(round int) bool { return round%c.every == 0 }

// Write persists one snapshot and returns its path.
func (c *Checkpointer) Write(snap *wire.Snapshot) (string, error) {
	c.buf = wire.EncodeSnapshot(c.buf[:0], snap)
	path := filepath.Join(c.dir, fmt.Sprintf(snapPattern, snap.NextRound-1))
	tmp, err := os.CreateTemp(c.dir, "checkpoint-*.tmp")
	if err != nil {
		return "", fmt.Errorf("fleet: checkpoint: %w", err)
	}
	// The bytes reach the disk before the rename publishes them, and the
	// rename (a directory entry) before Write returns.
	_, err = tmp.Write(c.buf)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("fleet: checkpoint: %w", err)
	}
	if err := syncDir(c.dir); err != nil {
		return "", fmt.Errorf("fleet: checkpoint: %w", err)
	}
	return path, nil
}

// syncDir flushes a directory's entries to disk.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// LoadLatest decodes the newest checkpoint in dir, returning it and its
// path. A directory without checkpoints is an error — resuming from
// nothing is an operator mistake, not an empty game.
func LoadLatest(dir string) (*wire.Snapshot, string, error) {
	paths, err := listCheckpoints(dir)
	if err != nil {
		return nil, "", err
	}
	if len(paths) == 0 {
		return nil, "", fmt.Errorf("fleet: no checkpoints in %s", dir)
	}
	path := paths[len(paths)-1]
	snap, err := Load(path)
	if err != nil {
		return nil, "", err
	}
	return snap, path, nil
}

// Load decodes one checkpoint file.
func Load(path string) (*wire.Snapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fleet: checkpoint: %w", err)
	}
	snap, err := wire.DecodeSnapshot(raw)
	if err != nil {
		return nil, fmt.Errorf("fleet: checkpoint %s: %w", path, err)
	}
	return snap, nil
}

// listCheckpoints returns the checkpoint paths in dir in round order.
func listCheckpoints(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.tq"))
	if err != nil {
		return nil, fmt.Errorf("fleet: checkpoint dir: %w", err)
	}
	sort.Strings(matches)
	return matches, nil
}
