package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// The HTTP surface, OJS level 0–1. All request and response bodies are
// JSON; durations travel as integer milliseconds. Errors come back as
//
//	{"error": {"code": "...", "message": "...", "retryable": bool}}
//
// with 429 + Retry-After for backpressure sheds, so clients can
// distinguish "back off and retry the same PUSH" from real failures.
//
//	GET  /ojs/manifest                  capability + queue discovery
//	POST /ojs/queues/{queue}/jobs       PUSH
//	GET  /ojs/queues/{queue}/dead       dead-letter listing
//	POST /ojs/fetch                     FETCH (lease jobs)
//	POST /ojs/heartbeat                 extend leases
//	GET  /ojs/jobs/{id}                 INFO
//	POST /ojs/jobs/{id}/ack            ACK (complete)
//	POST /ojs/jobs/{id}/fail           FAIL (retry or dead-letter)
//	POST /ojs/jobs/{id}/cancel         CANCEL
//	POST /ojs/jobs/{id}/requeue        resurrect from dead-letter

// apiError is the wire error envelope.
type apiError struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	Retryable bool   `json:"retryable"`
}

// errStatus maps a server error to its wire representation.
func errStatus(err error) (status int, ae apiError) {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound, apiError{Code: "not_found", Message: err.Error()}
	case errors.Is(err, ErrLeaseLost):
		return http.StatusConflict, apiError{Code: "lease_lost", Message: err.Error()}
	case errors.Is(err, ErrConflict):
		return http.StatusConflict, apiError{Code: "conflict", Message: err.Error()}
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests, apiError{Code: "overloaded", Message: err.Error(), Retryable: true}
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests, apiError{Code: "queue_full", Message: err.Error(), Retryable: true}
	case errors.Is(err, ErrInvalid):
		return http.StatusBadRequest, apiError{Code: "invalid", Message: err.Error()}
	default:
		return http.StatusInternalServerError, apiError{Code: "internal", Message: err.Error()}
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, err error) {
	status, ae := errStatus(err)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, struct {
		Error apiError `json:"error"`
	}{ae})
}

// readJSON decodes the body, one JSON value, into v; an empty body is
// allowed and leaves v zero. The body is read to its end, and anything
// but white space after the value is ErrInvalid.
func readJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(v); errors.Is(err, io.EOF) {
		return nil
	} else if err != nil {
		return fmt.Errorf("%w: bad JSON body: %v", ErrInvalid, err)
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return fmt.Errorf("%w: trailing data after the JSON body", ErrInvalid)
	}
	return nil
}

// pushRequest is the PUSH body.
type pushRequest struct {
	Args         json.RawMessage `json:"args"`
	MaxAttempts  int             `json:"max_attempts"`
	VisibilityMS int64           `json:"visibility_ms"`
	TimeoutMS    int64           `json:"timeout_ms"`
	Retry        *retryWire      `json:"retry"`
}

// retryWire is the RetryPolicy wire form (milliseconds).
type retryWire struct {
	BaseMS int64   `json:"base_ms"`
	Factor float64 `json:"factor"`
	MaxMS  int64   `json:"max_ms"`
}

func (r *retryWire) policy() *RetryPolicy {
	if r == nil {
		return nil
	}
	return &RetryPolicy{
		Base:   time.Duration(r.BaseMS) * time.Millisecond,
		Factor: r.Factor,
		Max:    time.Duration(r.MaxMS) * time.Millisecond,
	}
}

// fetchRequest is the FETCH body.
type fetchRequest struct {
	Queues []string `json:"queues"`
	Worker string   `json:"worker"`
	Count  int      `json:"count"`
	WaitMS int64    `json:"wait_ms"`
}

// heartbeatRequest is the heartbeat body.
type heartbeatRequest struct {
	Worker string   `json:"worker"`
	IDs    []string `json:"ids"`
}

// workerRequest is the ACK/FAIL body.
type workerRequest struct {
	Worker string `json:"worker"`
	Error  string `json:"error"`
}

// maxBody bounds request bodies; job args are small control-plane
// payloads, not blobs.
const maxBody = 1 << 20

// NewHandler mounts the OJS API for s on a fresh mux. Observability
// endpoints (/metrics, /healthz, …) are fifojobd's to add via
// expose.Routes on the same mux.
func NewHandler(s *Server) *http.ServeMux {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /ojs/manifest", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Manifest())
	})

	mux.HandleFunc("POST /ojs/queues/{queue}/jobs", func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, maxBody)
		var req pushRequest
		if err := readJSON(r, &req); err != nil {
			writeErr(w, err)
			return
		}
		env, err := s.Push(r.PathValue("queue"), req.Args, PushOptions{
			MaxAttempts: req.MaxAttempts,
			Visibility:  time.Duration(req.VisibilityMS) * time.Millisecond,
			Timeout:     time.Duration(req.TimeoutMS) * time.Millisecond,
			Retry:       req.Retry.policy(),
		})
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, env)
	})

	mux.HandleFunc("GET /ojs/queues/{queue}/dead", func(w http.ResponseWriter, r *http.Request) {
		envs, err := s.DeadLetter(r.PathValue("queue"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, struct {
			Jobs []*Envelope `json:"jobs"`
		}{envs})
	})

	mux.HandleFunc("POST /ojs/fetch", func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, maxBody)
		var req fetchRequest
		if err := readJSON(r, &req); err != nil {
			writeErr(w, err)
			return
		}
		envs, err := s.Fetch(req.Queues, req.Worker, req.Count, time.Duration(req.WaitMS)*time.Millisecond)
		if err != nil {
			writeErr(w, err)
			return
		}
		if envs == nil {
			envs = []*Envelope{}
		}
		writeJSON(w, http.StatusOK, struct {
			Jobs []*Envelope `json:"jobs"`
		}{envs})
	})

	mux.HandleFunc("POST /ojs/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, maxBody)
		var req heartbeatRequest
		if err := readJSON(r, &req); err != nil {
			writeErr(w, err)
			return
		}
		leases, err := s.Heartbeat(req.Worker, req.IDs)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, struct {
			Leases map[string]string `json:"leases"`
		}{leases})
	})

	mux.HandleFunc("GET /ojs/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		env, err := s.Info(r.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, env)
	})

	mux.HandleFunc("POST /ojs/jobs/{id}/ack", func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, maxBody)
		var req workerRequest
		if err := readJSON(r, &req); err != nil {
			writeErr(w, err)
			return
		}
		env, err := s.Ack(r.PathValue("id"), req.Worker)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, env)
	})

	mux.HandleFunc("POST /ojs/jobs/{id}/fail", func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, maxBody)
		var req workerRequest
		if err := readJSON(r, &req); err != nil {
			writeErr(w, err)
			return
		}
		env, err := s.Fail(r.PathValue("id"), req.Worker, req.Error)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, env)
	})

	mux.HandleFunc("POST /ojs/jobs/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		env, err := s.Cancel(r.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, env)
	})

	mux.HandleFunc("POST /ojs/jobs/{id}/requeue", func(w http.ResponseWriter, r *http.Request) {
		env, err := s.RequeueDead(r.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, env)
	})

	return mux
}
