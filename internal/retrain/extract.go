// Package retrain closes the telemetry → model loop (DESIGN.md §16):
// it replays the serving layer's feedback JSONL log into training
// matrices, re-detects phase boundaries from realized behavior, refits
// candidate models on the parallel CV engine, and packages the winner
// as a content-hash-versioned shadow for the lifecycle manager's
// dark-launch → auto-promote → rollback machinery.
//
// Every stage is deterministic for a given telemetry prefix: the same
// log bytes yield byte-identical model artifacts (invariant D14). That
// is what makes retraining testable — and shardable later, since any
// replica replaying the same prefix converges on the same shadow
// version.
//
// The package does not import internal/serve: like internal/lifecycle
// it talks to the serving stack through small structural interfaces
// (ModelSource, Publisher) that *lifecycle.Manager satisfies, so the
// import edges stay serve → retrain → {core, feedback, lifecycle}.
package retrain

import (
	"errors"
	"sort"

	"opprox/internal/apps"
	"opprox/internal/feedback"
)

// DefaultMaxRows bounds how many telemetry rows an extraction keeps
// (the most recent ones — drift recovery wants fresh behavior, and the
// bound is what keeps extraction memory independent of log size).
const DefaultMaxRows = 4096

// Row is one reconstructed training row: a realized phase observation
// joined with the dispatch context that produced it.
type Row struct {
	Seq        uint64
	DispatchID string
	Version    string
	Phase      int
	Params     apps.Params
	Levels     []int
	// Realized application-level outcomes on the natural scale.
	Speedup     float64
	Degradation float64
	// Residuals as logged — computed against the version that served the
	// dispatch. Re-detection recomputes residuals against the current
	// live model instead; these are kept for diagnostics.
	SpeedupRes float64
	DegRes     float64
}

// Matrix is the extractor's output: the training rows for one model,
// in deterministic order keyed by dispatch ID (then phase, then seq),
// plus replay accounting.
type Matrix struct {
	Model string
	Rows  []Row
	// Total counts every log entry seen for the model; Skipped counts
	// those that carried no dispatch context (written by an older build).
	Total   int
	Skipped int
}

// ExtractOptions configures a telemetry extraction.
type ExtractOptions struct {
	// Model is the base model name whose entries are extracted (required).
	Model string
	// MaxRows keeps only the most recent rows (by log sequence);
	// 0 means DefaultMaxRows.
	MaxRows int
}

// Extract replays a possibly-rotated telemetry log into a training
// matrix: streaming (one line in memory at a time), bounded (at most
// 2*MaxRows rows held during the replay), and deterministic (the row
// set is a pure function of the log bytes, and the row order is keyed
// by dispatch ID). Entries for other models are ignored without
// counting.
func Extract(path string, opts ExtractOptions) (*Matrix, error) {
	if opts.Model == "" {
		return nil, errors.New("retrain: ExtractOptions.Model is required")
	}
	maxRows := opts.MaxRows
	if maxRows <= 0 {
		maxRows = DefaultMaxRows
	}
	m := &Matrix{Model: opts.Model}
	var rows []Row
	err := feedback.ScanLog(path, func(e feedback.Entry) error {
		if e.Model != opts.Model {
			return nil
		}
		m.Total++
		// Levels is the dispatch-context discriminator: every served phase
		// has at least one block, so empty levels means the entry predates
		// context-carrying telemetry. Params may legitimately be empty (a
		// dispatch that relied on the app's defaults).
		if len(e.Levels) == 0 {
			m.Skipped++
			return nil
		}
		rows = append(rows, Row{
			Seq:         e.Seq,
			DispatchID:  e.DispatchID,
			Version:     e.Version,
			Phase:       e.Phase,
			Params:      e.Params,
			Levels:      e.Levels,
			Speedup:     e.Speedup,
			Degradation: e.Degradation,
			SpeedupRes:  e.SpeedupRes,
			DegRes:      e.DegRes,
		})
		// ScanLog delivers in ascending sequence order, so "most recent"
		// is the tail; compacting at 2x keeps memory bounded.
		if len(rows) >= 2*maxRows {
			rows = append(rows[:0], rows[len(rows)-maxRows:]...)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(rows) > maxRows {
		rows = append(rows[:0], rows[len(rows)-maxRows:]...)
	}
	sortByDispatch(rows)
	m.Rows = rows
	return m, nil
}

// sortByDispatch orders rows by (dispatch ID, phase, seq) — the
// deterministic training order. Dispatch IDs are content hashes, so
// this order is independent of arrival timing; seq breaks the tie for
// repeated feedback on the same dispatch.
func sortByDispatch(rows []Row) {
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].DispatchID != rows[b].DispatchID {
			return rows[a].DispatchID < rows[b].DispatchID
		}
		if rows[a].Phase != rows[b].Phase {
			return rows[a].Phase < rows[b].Phase
		}
		return rows[a].Seq < rows[b].Seq
	})
}

// sortBySeq orders rows by log sequence — arrival order, the series
// changepoint detection scans.
func sortBySeq(rows []Row) {
	sort.Slice(rows, func(a, b int) bool { return rows[a].Seq < rows[b].Seq })
}
