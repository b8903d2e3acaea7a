package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"macroplace/internal/obs"
)

// maxSpecBytes bounds a job submission body; Bookshelf uploads of the
// paper's benchmark sizes fit comfortably.
const maxSpecBytes = 64 << 20

// Handler returns the daemon's HTTP API:
//
//	POST   /v1/jobs                  submit a job (JSON Spec) → 202 + Status
//	GET    /v1/jobs                  list job statuses, admission order
//	GET    /v1/jobs/{id}             one job's status (result once done)
//	DELETE /v1/jobs/{id}             cancel → 202; idempotent 200 once terminal
//	GET    /v1/jobs/{id}/events      stream the job's event log (SSE)
//	GET    /v1/jobs/{id}/checkpoint  the job's latest search.ckpt bytes
//	GET    /v1/jobs/{id}/def         the placed design as DEF (LEF/DEF jobs)
//
// plus the whole telemetry mux (/metrics, /healthz, /debug/pprof/) on
// the same listener, so one scrape target covers queue metrics and
// search counters alike. Admission control: a full queue answers 429
// with a Retry-After hint; a draining daemon answers 503.
func (d *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", d.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", d.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", d.handleGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", d.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", d.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/checkpoint", d.handleCheckpoint)
	mux.HandleFunc("GET /v1/jobs/{id}/def", d.handleDEF)
	mux.Handle("/", obs.Handler(obs.Default))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		obsHTTPRequests.Inc()
		mux.ServeHTTP(w, r)
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

func (d *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "decode spec: "+err.Error())
		return
	}
	_, admitted, err := d.submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		secs := int(d.cfg.RetryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case err != nil:
		writeError(w, http.StatusBadRequest, err.Error())
	default:
		writeJSON(w, http.StatusAccepted, admitted)
	}
}

func (d *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := d.Jobs()
	out := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status())
	}
	writeJSON(w, http.StatusOK, out)
}

func (d *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := d.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (d *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := d.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	// Idempotent on terminal jobs: a retried or racing DELETE answers
	// 200 with the settled status instead of re-cancelling (the job's
	// context is already released with its benign terminal cause, so
	// there is nothing left to cancel anyway).
	if j.State().Terminal() {
		writeJSON(w, http.StatusOK, j.Status())
		return
	}
	j.Cancel(ErrCancelled)
	writeJSON(w, http.StatusAccepted, j.Status())
}

// handleCheckpoint serves the job's latest crash-safe search checkpoint
// verbatim — the fleet coordinator fetches it to migrate a job off a
// dying or draining worker. 404 until the search stage has committed at
// least one step (there is simply no checkpoint yet).
func (d *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	j, ok := d.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	data, err := os.ReadFile(filepath.Join(j.Dir, "search.ckpt"))
	if err != nil {
		writeError(w, http.StatusNotFound, "no checkpoint yet")
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	// Explicit length keeps the response self-delimiting even when the
	// connection dies right after the bytes are flushed — a migrating
	// coordinator may be fetching from a worker in its last moments.
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// handleDEF serves the job's placed design as DEF text — written by
// the runner once the flow finishes on a job whose design came in as
// an inline LEF/DEF pair. 404 until then (and always, for bench or
// Bookshelf jobs, which have no DEF to update).
func (d *Server) handleDEF(w http.ResponseWriter, r *http.Request) {
	j, ok := d.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	data, err := os.ReadFile(filepath.Join(j.Dir, "placed.def"))
	if err != nil {
		writeError(w, http.StatusNotFound, "no placed DEF (job unfinished, or not a LEF/DEF job)")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// handleEvents streams the job's event log as server-sent events: the
// full history first, then live events until the job is terminal (the
// stream then ends) or the client goes away. Each event is one
// `data: {json}` frame; no polling required.
func (d *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := d.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	seen := 0
	for {
		evs, more := j.EventsSince(seen)
		for _, ev := range evs {
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "data: %s\n\n", data)
		}
		if len(evs) > 0 {
			flusher.Flush()
		}
		seen += len(evs)
		if more == nil {
			return
		}
		select {
		case <-more:
		case <-r.Context().Done():
			return
		}
	}
}

// Start binds addr (host:port; port 0 picks a free one) and serves the
// API in a background goroutine, returning the bound address.
func (d *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	d.httpSrv = &http.Server{
		Handler: d.Handler(),
		// Submissions and status reads are small; the event stream and
		// pprof captures are long-lived by design, so no WriteTimeout.
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() { _ = d.httpSrv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Shutdown is the daemon's graceful-exit path: drain the job layer
// (stop admitting, cancel queued jobs, interrupt running flows so
// they checkpoint and finish), then drain the HTTP listener, falling
// back to an immediate close when ctx expires first.
func (d *Server) Shutdown(ctx context.Context) error {
	err := d.Drain(ctx)
	if d.httpSrv != nil {
		herr := d.httpSrv.Shutdown(ctx)
		if herr != nil {
			_ = d.httpSrv.Close()
		}
		if err == nil {
			err = herr
		}
	}
	d.cancelAll()
	return err
}
