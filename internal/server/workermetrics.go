package server

import (
	"fmt"
	"io"
	"sync/atomic"
)

// WorkerMetrics aggregates a worker process's counters for its
// /metrics endpoint — the per-shard observability surface lpstat
// scrapes. All fields are atomics; the open-session gauge is read from
// the live session table at render time instead of being counted
// twice.
type WorkerMetrics struct {
	// SessionsOpened counts protocol sessions accepted (FrameBegin).
	SessionsOpened atomic.Int64
	// SessionsExpired counts sessions reclaimed by the TTL sweeper —
	// each one is a coordinator that vanished mid-protocol (or a
	// deliberately tiny TTL in tests).
	SessionsExpired atomic.Int64
	// Steps counts protocol frames served (any type, post-decode).
	Steps atomic.Int64
	// StepErrors counts frames refused after decoding: unknown or
	// expired sessions, session-limit rejections, malformed payloads,
	// site-step failures.
	StepErrors atomic.Int64
	// FrameDecodeErrors counts bodies that failed the strict frame
	// decode — garbage, short frames, bad magic. A nonzero value means
	// something is speaking the wrong protocol at this worker.
	FrameDecodeErrors atomic.Int64
	// BytesIn / BytesOut count step request/reply payload bytes on the
	// wire (frame envelopes included, HTTP overhead excluded).
	BytesIn  atomic.Int64
	BytesOut atomic.Int64
}

// Render writes the worker families in Prometheus text exposition
// format. The caller supplies the live gauges (open sessions and the
// weight state they hold, shard shape) that are not counters.
func (m *WorkerMetrics) Render(w io.Writer, sessionsOpen int, sessionStateBytes int64, draining bool, kind string, dim, rows int) {
	g := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	c := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	g("lpserved_worker_sessions_open", "Protocol sessions currently open.", int64(sessionsOpen))
	g("lpserved_worker_session_state_bytes", "Per-row weight state held by the open sessions (21 B per shard row each once a session samples, plus its violator list).", sessionStateBytes)
	var d int64
	if draining {
		d = 1
	}
	g("lpserved_worker_draining", "1 while the worker refuses new protocol sessions (drain before shutdown).", d)
	c("lpserved_worker_sessions_opened_total", "Protocol sessions accepted.", m.SessionsOpened.Load())
	c("lpserved_worker_sessions_expired_total", "Sessions reclaimed by the idle TTL sweeper.", m.SessionsExpired.Load())
	c("lpserved_worker_steps_total", "Protocol frames served.", m.Steps.Load())
	c("lpserved_worker_step_errors_total", "Frames refused after decoding (unknown session, limits, step failures).", m.StepErrors.Load())
	c("lpserved_worker_frame_decode_errors_total", "Bodies that failed the strict frame decode.", m.FrameDecodeErrors.Load())
	c("lpserved_worker_bytes_in_total", "Step request bytes received.", m.BytesIn.Load())
	c("lpserved_worker_bytes_out_total", "Step reply bytes sent.", m.BytesOut.Load())
	fmt.Fprintf(w, "# HELP lpserved_worker_shard_rows Rows in the shard this worker owns.\n# TYPE lpserved_worker_shard_rows gauge\nlpserved_worker_shard_rows %d\n", rows)
	fmt.Fprintf(w, "# HELP lpserved_worker_shard_info Shard identity (value is always 1).\n# TYPE lpserved_worker_shard_info gauge\nlpserved_worker_shard_info{kind=%q,dim=\"%d\"} 1\n", kind, dim)
}
