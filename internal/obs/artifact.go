package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// This file holds the on-disk shapes of the observability artifacts. The
// writers (Series.WriteJSON, Ledger.WriteJSON) encode these types, and
// `pageforge report` parses them back with schema validation long after the
// run that produced them is gone (the series.json of a run -out or explain
// -out directory, and the ledger.json that explain -out writes beside it).

// SeriesFilePoint is one sampled window as stored in a series.json artifact:
// the point's per-window counter deltas and instantaneous gauges, plus the
// derived per-megacycle rates the writer adds at export time, so the
// artifact is plottable without a post-processing step.
type SeriesFilePoint struct {
	SeriesPoint
	Rates map[string]float64 `json:"ratesPerMcycle,omitempty"`
}

// SeriesFileTrack is one run's point sequence as stored in the artifact.
type SeriesFileTrack struct {
	Name    string            `json:"name"`
	Dropped uint64            `json:"dropped"`
	Points  []SeriesFilePoint `json:"points"`
}

// SeriesFile is a series.json artifact, as Series.WriteJSON writes it and
// ReadSeriesJSON parses it.
type SeriesFile struct {
	Schema string            `json:"schema"`
	Tracks []SeriesFileTrack `json:"tracks"`
}

// ReadSeriesJSON parses a series.json artifact, rejecting unknown schemas.
func ReadSeriesJSON(r io.Reader) (*SeriesFile, error) {
	var f SeriesFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("obs: series artifact: %w", err)
	}
	if f.Schema != SeriesSchema {
		return nil, fmt.Errorf("obs: series artifact schema %q, want %q", f.Schema, SeriesSchema)
	}
	return &f, nil
}

// LedgerFileEvent is one provenance event as stored in a ledger artifact
// (kind and cause by name, the way LedgerEvent marshals).
type LedgerFileEvent struct {
	Seq   uint64 `json:"seq"`
	Pass  int    `json:"pass"`
	Kind  string `json:"kind"`
	Cause string `json:"cause,omitempty"`
	VM    int    `json:"vm"`
	GFN   uint64 `json:"gfn"`
	PFN   uint64 `json:"pfn"`
	Arg   uint64 `json:"arg,omitempty"`
}

// LedgerFile is a ledger.json artifact (`pageforge explain -out`), as
// Ledger.WriteJSON writes it and ReadLedgerJSON parses it.
type LedgerFile struct {
	Schema      string            `json:"schema"`
	Attribution Attribution       `json:"attribution"`
	Events      []LedgerFileEvent `json:"events"`
}

// ReadLedgerJSON parses a ledger artifact, rejecting unknown schemas.
func ReadLedgerJSON(r io.Reader) (*LedgerFile, error) {
	var f LedgerFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("obs: ledger artifact: %w", err)
	}
	if f.Schema != LedgerSchema {
		return nil, fmt.Errorf("obs: ledger artifact schema %q, want %q", f.Schema, LedgerSchema)
	}
	return &f, nil
}
