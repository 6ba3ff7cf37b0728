package server

import (
	"encoding/json"
	"net/http"
	"path/filepath"
	"runtime/debug"
	"time"

	"astrx/internal/durable"
	"astrx/internal/oblx"
	"astrx/internal/telemetry"
)

// jobTelemetry bundles one job's observability instruments: the shared
// per-stage eval timer (funnelling into the oblxd_eval_stage_seconds
// histograms) and the annealer flight recorder. One bundle serves a job
// across supervised attempts, so a retried job's breakdown and move ring
// are cumulative.
type jobTelemetry struct {
	timer  *telemetry.EvalTimer
	flight *flightRecorder
}

// telemetrySampleEvery resolves the manager's sampling cadence: 0 means
// the default of one in 64 evaluations, negative disables stage timing.
func (m *Manager) telemetrySampleEvery() int {
	switch every := m.opt.TelemetrySampleEvery; {
	case every < 0:
		return 0
	case every == 0:
		return 64
	default:
		return every
	}
}

// jobTelem returns the job's telemetry bundle, creating it on first use
// (the first supervised attempt).
func (m *Manager) jobTelem(j *Job) *jobTelemetry {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.telem == nil {
		t := telemetry.NewEvalTimer(m.telemetrySampleEvery())
		t.OnSample(func(s telemetry.Stage, d time.Duration) {
			m.mStage[s].Observe(d.Seconds())
			// Each sampled stage timing doubles as an eval span in the
			// job's trace, parented under the current anneal span.
			j.trace.RecordEval(s.String(), d)
		})
		j.telem = &jobTelemetry{
			timer:  t,
			flight: newFlightRecorder(m.opt.FlightRecords),
		}
	}
	return j.telem
}

// flightPath is where a job's durable flight-recorder snapshot lives.
// The .flight suffix keeps it invisible to the job-record fsck, and —
// unlike checkpoints — the file deliberately survives the job turning
// terminal: it is the post-mortem artifact.
func (m *Manager) flightPath(id string) string {
	return filepath.Join(m.opt.StateDir, "job-"+id+".flight")
}

// snapshotFlight persists the job's flight recorder to the state dir,
// sealed like every other durable artifact. Called when supervision
// kills a run (stall, poison, deadline), so the last moves before death
// survive a daemon restart.
func (m *Manager) snapshotFlight(j *Job, cause string) {
	if m.opt.StateDir == "" {
		return
	}
	j.mu.Lock()
	telem := j.telem
	attempt := j.attempts
	j.mu.Unlock()
	if telem == nil {
		return
	}
	moves, total := telem.flight.snapshot()
	snap := FlightSnapshot{
		Version:       FlightSnapshotVersion,
		JobID:         j.ID,
		Cause:         cause,
		Time:          time.Now(),
		Attempt:       attempt,
		SampleEvery:   telem.timer.SampleEvery(),
		TotalRecorded: total,
		Stages:        telem.timer.Breakdown(),
		Moves:         moves,
	}
	data, err := json.Marshal(&snap)
	if err != nil {
		m.jlog(j).Error("marshal flight snapshot failed", "err", err)
		return
	}
	if err := durable.WriteSealedAtomic(m.fsys, m.flightPath(j.ID), data); err != nil {
		m.noteStateDirError(err)
		m.jlog(j).Error("persist flight snapshot failed", "err", err)
		return
	}
	m.noteStateDirOK()
	m.jlog(j).Info("flight snapshot written", "cause", cause, "moves", len(snap.Moves))
}

// loadFlight reads a job's durable flight snapshot back, verifying the
// envelope and the schema version.
func (m *Manager) loadFlight(id string) (*FlightSnapshot, error) {
	data, err := durable.ReadSealed(m.fsys, m.flightPath(id))
	if err != nil {
		return nil, err
	}
	return DecodeFlightSnapshot(data)
}

// TelemetrySummary is the JSON body of GET /v1/jobs/{id}/telemetry: the
// per-stage timing breakdown plus the shape (not the content) of the
// flight-recorder ring. Source says whether it was read from the live
// recorder or a durable post-mortem snapshot.
type TelemetrySummary struct {
	ID     string `json:"id"`
	State  State  `json:"state"`
	Source string `json:"source"` // "live" | "snapshot"
	// Cause/Time/Attempt describe the snapshot trigger (snapshot source
	// only).
	Cause         string                     `json:"cause,omitempty"`
	Time          *time.Time                 `json:"time,omitempty"`
	Attempt       int                        `json:"attempt,omitempty"`
	SampleEvery   int                        `json:"sample_every"`
	Records       int                        `json:"records"`
	TotalRecorded uint64                     `json:"total_recorded"`
	Stages        []telemetry.StageBreakdown `json:"stages,omitempty"`
	LastMove      *oblx.ProgressEvent        `json:"last_move,omitempty"`
}

// telemetryFor resolves a job's telemetry, preferring the live recorder
// (fresher while the job runs in this incarnation) over the durable
// snapshot. A nil summary means the job predates telemetry entirely.
func (m *Manager) telemetryFor(j *Job) (*TelemetrySummary, []oblx.ProgressEvent) {
	j.mu.Lock()
	telem := j.telem
	state := j.state
	j.mu.Unlock()

	if telem != nil {
		moves, total := telem.flight.snapshot()
		sum := &TelemetrySummary{
			ID:            j.ID,
			State:         state,
			Source:        "live",
			SampleEvery:   telem.timer.SampleEvery(),
			Records:       len(moves),
			TotalRecorded: total,
			Stages:        telem.timer.Breakdown(),
		}
		if n := len(moves); n > 0 {
			sum.LastMove = &moves[n-1]
		}
		return sum, moves
	}

	snap, err := m.loadFlight(j.ID)
	if err != nil {
		return nil, nil
	}
	sum := &TelemetrySummary{
		ID:            j.ID,
		State:         state,
		Source:        "snapshot",
		Cause:         snap.Cause,
		Attempt:       snap.Attempt,
		SampleEvery:   snap.SampleEvery,
		Records:       len(snap.Moves),
		TotalRecorded: snap.TotalRecorded,
		Stages:        snap.Stages,
	}
	if !snap.Time.IsZero() {
		t := snap.Time
		sum.Time = &t
	}
	if n := len(snap.Moves); n > 0 {
		sum.LastMove = &snap.Moves[n-1]
	}
	return sum, snap.Moves
}

// handleTelemetry serves GET /v1/jobs/{id}/telemetry. Jobs submitted
// before this daemon gained telemetry (recovered records with no flight
// snapshot on disk) answer 409, not 500: the job exists, the artifact
// never did.
func (m *Manager) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	j := m.jobOr404(w, r)
	if j == nil {
		return
	}
	sum, _ := m.telemetryFor(j)
	if sum == nil {
		writeErr(w, http.StatusConflict,
			"job %s has no telemetry: it predates this daemon's recorder or never ran here", j.ID)
		return
	}
	writeJSON(w, http.StatusOK, sum)
}

// handleTelemetryMoves serves GET /v1/jobs/{id}/telemetry/moves: the raw
// flight-recorder ring as JSONL progress events, oldest move first.
func (m *Manager) handleTelemetryMoves(w http.ResponseWriter, r *http.Request) {
	j := m.jobOr404(w, r)
	if j == nil {
		return
	}
	sum, moves := m.telemetryFor(j)
	if sum == nil {
		writeErr(w, http.StatusConflict,
			"job %s has no telemetry: it predates this daemon's recorder or never ran here", j.ID)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	_ = writeJSONL(w, moves)
}

// buildVersion extracts a human-useful version from the binary's build
// info: the module version when stamped, else the VCS revision, else
// "devel".
func buildVersion() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "devel"
	}
	if v := bi.Main.Version; v != "" && v != "(devel)" {
		return v
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" && len(s.Value) >= 12 {
			return s.Value[:12]
		}
	}
	return "devel"
}
