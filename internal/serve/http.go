package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
)

// routes wires the HTTP API:
//
//	POST /jobs                submit {"kind": ..., "params": ...}
//	GET  /jobs                list jobs
//	GET  /jobs/{id}           job status
//	GET  /jobs/{id}/stream    JSONL progress stream (campaign cells in
//	                          index order as they complete; search/rare
//	                          emit their result once terminal)
//	GET  /jobs/{id}/result    final result artifact (terminal jobs)
//	GET  /jobs/{id}/summary   summary table (terminal jobs)
//	POST /jobs/{id}/cancel    cancel a queued or running job
//	GET  /healthz             liveness probe
func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /jobs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /jobs/{id}/summary", s.handleSummary)
	s.mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
}

// ServeHTTP makes the server an http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// SubmitRequest is the POST /jobs body.
type SubmitRequest struct {
	// Kind is "campaign", "search" or "rare".
	Kind string `json:"kind"`
	// Params is ECJ-style parameter text, the same format the spec files
	// on disk use.
	Params string `json:"params"`
}

// maxSubmitBytes caps a POST /jobs body. The shipped campaign specs are
// a few hundred bytes to a few kilobytes of params text; the cap leaves
// room for long explicit-scenario lists while bounding what one request
// can make the server buffer.
const maxSubmitBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes)).Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			http.Error(w, fmt.Sprintf("request body exceeds %d bytes", maxSubmitBytes), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		return
	}
	st, err := s.Submit(req.Kind, req.Params)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(st)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Jobs())
}

// lookup resolves the {id} path value, writing a 404 when unknown.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *job {
	s.mu.Lock()
	j, ok := s.byID[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		http.Error(w, fmt.Sprintf("unknown job %q", r.PathValue("id")), http.StatusNotFound)
		return nil
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(j.Status())
}

// handleStream streams a campaign job's cell records as JSONL in cell
// index order, as they complete — a tail -f over the campaign. Poisoned
// cells become holes in the index sequence once the job is terminal (a
// running job may still retry them). For search and rare jobs the stream
// waits for the terminal result and emits it as a single line.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	next := 0
	for {
		var lines [][]byte
		j.mu.Lock()
		status := j.status
		update := j.update
		if j.spec.Kind == KindCampaign {
			for next < len(j.cells) {
				if j.have[next] {
					line, err := json.Marshal(j.results[next])
					if err == nil {
						lines = append(lines, line)
					}
					next++
				} else if terminal(status) && j.poison[next] {
					next++
				} else {
					break
				}
			}
		} else if terminal(status) && len(j.payload) > 0 {
			lines = append(lines, j.payload)
		}
		j.mu.Unlock()
		for _, line := range lines {
			w.Write(line)
			w.Write([]byte{'\n'})
		}
		if len(lines) > 0 && flusher != nil {
			flusher.Flush()
		}
		if terminal(status) {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-s.drain:
			return
		case <-update:
		}
	}
}

// artifact serves a terminal job's artifact file; 409 while the job is
// still queued or running, 404 when the terminal job produced none.
func (s *Server) artifact(w http.ResponseWriter, r *http.Request, suffix, contentType string) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	st := j.Status()
	if !terminal(st.Status) {
		http.Error(w, fmt.Sprintf("job %s is %s; artifacts exist once it is terminal", st.ID, st.Status), http.StatusConflict)
		return
	}
	data, err := os.ReadFile(j.artifactBase(s.cfg.StateDir) + suffix)
	if err != nil {
		http.Error(w, fmt.Sprintf("job %s (%s) has no %s artifact", st.ID, st.Status, suffix), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", contentType)
	w.Write(data)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	suffix := ".result.json"
	contentType := "application/json"
	if j.spec.Kind == KindCampaign {
		suffix = ".jsonl"
		contentType = "application/x-ndjson"
	}
	s.artifact(w, r, suffix, contentType)
}

func (s *Server) handleSummary(w http.ResponseWriter, r *http.Request) {
	s.artifact(w, r, ".summary.txt", "text/plain; charset=utf-8")
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	if err := s.Cancel(j.id); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	w.WriteHeader(http.StatusAccepted)
	fmt.Fprintln(w, "cancelling")
}
