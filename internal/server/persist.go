package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pcmcomp/internal/obs"
)

// snapshotVersion guards the on-disk format: a snapshot written by a
// different layout is refused wholesale rather than half-restored.
const snapshotVersion = 1

// snapshot is the crash-safety file: the terminal jobs (in eviction
// order), the ID sequence, and the result cache (in recency order). Job
// results and cache values are json.RawMessage, so a restore round-trips
// them byte-identically. Queued and running jobs are not persisted — a
// restart cannot resume a half-run simulation, and re-submission is cheap
// because the restored cache answers repeated parameters instantly.
type snapshot struct {
	Version int             `json:"version"`
	SavedAt time.Time       `json:"saved_at"`
	Seq     uint64          `json:"seq"`
	Jobs    []Job           `json:"jobs"`
	Cache   []exportedEntry `json:"cache"`
	// Flight-recorder timelines and terminal sweeps, added with the
	// observability work. All additive and omitempty, so snapshots written
	// before these fields existed still load (they restore with empty
	// timelines), keeping the version at 1.
	JobEvents   map[string][]obs.Event `json:"job_events,omitempty"`
	Sweeps      []SweepStatus          `json:"sweeps,omitempty"`
	SweepEvents map[string][]obs.Event `json:"sweep_events,omitempty"`
	SweepSeq    uint64                 `json:"sweep_seq,omitempty"`
}

// SaveSnapshot writes the current terminal jobs and result cache to the
// configured snapshot path, atomically: the file is staged next to the
// target and renamed into place, so a crash mid-write leaves the previous
// snapshot intact. No-op when no snapshot path is configured.
func (s *Server) SaveSnapshot() error {
	if s.cfg.SnapshotPath == "" {
		return nil
	}
	jobs, jobEvents, seq := s.store.export()
	sweeps, sweepEvents, sweepSeq := s.sweeps.export()
	snap := snapshot{
		Version:     snapshotVersion,
		SavedAt:     time.Now().UTC(),
		Seq:         seq,
		Jobs:        jobs,
		Cache:       s.cache.export(),
		JobEvents:   jobEvents,
		Sweeps:      sweeps,
		SweepEvents: sweepEvents,
		SweepSeq:    sweepSeq,
	}
	buf, err := json.Marshal(&snap)
	if err != nil {
		return fmt.Errorf("snapshot: marshal: %w", err)
	}
	dir := filepath.Dir(s.cfg.SnapshotPath)
	tmp, err := os.CreateTemp(dir, ".pcmd-snapshot-*")
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return fmt.Errorf("snapshot: write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("snapshot: sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("snapshot: close: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.cfg.SnapshotPath); err != nil {
		return fmt.Errorf("snapshot: rename: %w", err)
	}
	s.metrics.snapshotSaved()
	return nil
}

// loadSnapshot restores the job store and result cache from the snapshot
// path. A missing file is a clean first boot (nil error); a corrupt,
// truncated, or version-mismatched file is reported as an error and
// nothing is restored, so the server starts empty rather than with a
// half-trusted state.
func (s *Server) loadSnapshot() error {
	if s.cfg.SnapshotPath == "" {
		return nil
	}
	buf, err := os.ReadFile(s.cfg.SnapshotPath)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	return s.restoreSnapshot(buf)
}

// restoreSnapshot decodes the snapshot file's contents and restores them,
// or restores nothing and reports why.
func (s *Server) restoreSnapshot(buf []byte) error {
	var snap snapshot
	if err := json.Unmarshal(buf, &snap); err != nil {
		return fmt.Errorf("snapshot: corrupt %s: %w", s.cfg.SnapshotPath, err)
	}
	if snap.Version != snapshotVersion {
		return fmt.Errorf("snapshot: %s has version %d, want %d",
			s.cfg.SnapshotPath, snap.Version, snapshotVersion)
	}
	s.store.restore(snap.Jobs, snap.JobEvents, snap.Seq)
	s.cache.restore(snap.Cache)
	s.sweeps.restore(snap.Sweeps, snap.SweepEvents, snap.SweepSeq)
	return nil
}
