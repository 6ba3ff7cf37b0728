package server

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"astrx/internal/oblx"
	"astrx/internal/telemetry"
)

// defaultFlightRecords is the flight-recorder ring capacity used when
// Options.FlightRecords is not positive.
const defaultFlightRecords = 2048

// flightRecorder is a bounded ring of a job's most recent progress
// events, safe for concurrent writers (RunBest's parallel runs) and
// snapshot readers. It grows with the events recorded up to its
// capacity, so a short job holds a few events, not a full ring.
type flightRecorder struct {
	mu       sync.Mutex
	capacity int
	evs      []oblx.ProgressEvent // len ≤ capacity; once full, evs[start] is the oldest
	start    int
	total    uint64
}

// newFlightRecorder returns a recorder keeping the last `capacity`
// events (defaultFlightRecords if capacity <= 0).
func newFlightRecorder(capacity int) *flightRecorder {
	if capacity <= 0 {
		capacity = defaultFlightRecords
	}
	return &flightRecorder{capacity: capacity}
}

// record appends ev, evicting the oldest entry once the ring is full.
func (r *flightRecorder) record(ev oblx.ProgressEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.evs) < r.capacity {
		r.evs = append(r.evs, ev)
	} else {
		r.evs[r.start] = ev
		r.start = (r.start + 1) % r.capacity
	}
	r.total++
}

// snapshot returns the buffered events oldest-first, with the count of
// events ever recorded (evicted ones included).
func (r *flightRecorder) snapshot() ([]oblx.ProgressEvent, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]oblx.ProgressEvent, 0, len(r.evs))
	out = append(append(out, r.evs[r.start:]...), r.evs[:r.start]...)
	return out, r.total
}

// FlightSnapshot is the durable post-mortem artifact written to the state
// dir when the supervisor stalls, poisons, or deadline-kills a job, and
// the payload served for jobs whose live telemetry is gone (restart).
type FlightSnapshot struct {
	Version       int                        `json:"version"`
	JobID         string                     `json:"job_id,omitempty"`
	Cause         string                     `json:"cause,omitempty"`
	Time          time.Time                  `json:"time"`
	Attempt       int                        `json:"attempt,omitempty"`
	SampleEvery   int                        `json:"sample_every,omitempty"`
	TotalRecorded uint64                     `json:"total_recorded"`
	Stages        []telemetry.StageBreakdown `json:"stages,omitempty"`
	Moves         []oblx.ProgressEvent       `json:"moves"`
}

// FlightSnapshotVersion is the current FlightSnapshot schema version.
// Version 2 stores progress events under their SSE field names; version
// 1 records named the acceptance ratio "acc_ratio".
const FlightSnapshotVersion = 2

// DecodeFlightSnapshot parses a snapshot previously produced with
// json.Marshal, upgrading version 1 records and rejecting payloads from a
// future schema.
func DecodeFlightSnapshot(data []byte) (*FlightSnapshot, error) {
	var snap FlightSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("flight snapshot: %w", err)
	}
	if snap.Version > FlightSnapshotVersion {
		return nil, fmt.Errorf("flight snapshot: version %d is newer than supported %d", snap.Version, FlightSnapshotVersion)
	}
	if snap.Version < 2 {
		var v1 struct {
			Moves []struct {
				AccRatio float64 `json:"acc_ratio"`
			} `json:"moves"`
		}
		if err := json.Unmarshal(data, &v1); err != nil {
			return nil, fmt.Errorf("flight snapshot: %w", err)
		}
		for i := range snap.Moves {
			snap.Moves[i].AcceptRatio = v1.Moves[i].AccRatio
		}
	}
	return &snap, nil
}

// writeJSONL writes one JSON object per line for each event — the
// interchange format of GET /v1/jobs/{id}/telemetry/moves.
func writeJSONL(w io.Writer, evs []oblx.ProgressEvent) error {
	enc := json.NewEncoder(w)
	for i := range evs {
		if err := enc.Encode(&evs[i]); err != nil {
			return err
		}
	}
	return nil
}
