package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/url"

	"repro/internal/trace"
)

// The client calls and the server probe below are used only by this
// package's tests; the load generator and the benchmark open, ingest
// raw frames, seal and evict.

// Ingest streams one frame of events into the session.
func (c *Client) Ingest(id string, events []trace.Event) (IngestResult, error) {
	return c.IngestRaw(id, EncodeFrame(events))
}

// Artifact downloads the sealed artifact bytes.
func (c *Client) Artifact(id string) ([]byte, error) {
	req, err := http.NewRequest("GET", c.Base+"/v1/sessions/"+url.PathEscape(id)+"/artifact", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpc().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var eb errorBody
		json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&eb) //nolint:errcheck // best-effort message
		return nil, &StatusError{Code: resp.StatusCode, Msg: eb.Error}
	}
	return io.ReadAll(resp.Body)
}

// List fetches the resident-session table.
func (c *Client) List() (ListResult, error) {
	var res ListResult
	err := c.do("GET", "/v1/sessions", "", nil, &res)
	return res, err
}

// Health fetches /healthz.
func (c *Client) Health() (Health, error) {
	var h Health
	err := c.do("GET", "/healthz", "", nil, &h)
	return h, err
}

// SessionCount reports resident sessions (open + sealed).
func (s *Server) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}
