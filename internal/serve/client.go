package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"repro/internal/trace"
)

// StatusError is a non-2xx daemon response, carrying the protocol status
// and the server's error message.
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("server: %d %s: %s", e.Code, http.StatusText(e.Code), e.Msg)
}

// IsStatus reports whether err is a StatusError with the given code.
func IsStatus(err error, code int) bool {
	se, ok := err.(*StatusError)
	return ok && se.Code == code
}

// Client speaks the daemon protocol. The zero HTTP client is replaced by
// http.DefaultClient.
type Client struct {
	Base string // e.g. "http://127.0.0.1:8324"
	HTTP *http.Client
}

// NewClient returns a Client for a daemon at base.
func NewClient(base string) *Client {
	return &Client{Base: base, HTTP: http.DefaultClient}
}

func (c *Client) httpc() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// do issues one request and decodes the JSON response into out (skipped
// when out is nil). Non-2xx responses become *StatusError.
func (c *Client) do(method, path string, contentType string, body io.Reader, out any) error {
	req, err := http.NewRequest(method, c.Base+path, body)
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.httpc().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var eb errorBody
		json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&eb) //nolint:errcheck // best-effort message
		return &StatusError{Code: resp.StatusCode, Msg: eb.Error}
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (c *Client) doJSON(method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	return c.do(method, path, "application/json", body, out)
}

// Open opens a session.
func (c *Client) Open(req OpenRequest) (SessionInfo, error) {
	var info SessionInfo
	err := c.doJSON("POST", "/v1/sessions", req, &info)
	return info, err
}

// EncodeFrame renders events as one WPT1 wire frame — the body of an
// ingest POST.
func EncodeFrame(events []trace.Event) []byte {
	return trace.AppendFrame(make([]byte, 0, trace.EncodedSize(events)), events)
}

// IngestRaw posts raw bytes as an events frame. Fault-injecting tests use
// it to send malformed and truncated frames.
func (c *Client) IngestRaw(id string, frame []byte) (IngestResult, error) {
	var res IngestResult
	err := c.do("POST", "/v1/sessions/"+url.PathEscape(id)+"/events",
		"application/octet-stream", bytes.NewReader(frame), &res)
	return res, err
}

// Seal finalizes the session with the traced run's instruction total.
func (c *Client) Seal(id string, instructions uint64) (SealResult, error) {
	var res SealResult
	err := c.doJSON("POST", "/v1/sessions/"+url.PathEscape(id)+"/seal",
		SealRequest{Instructions: instructions}, &res)
	return res, err
}

// HotQuery parameterizes a /hot request; zero fields use server defaults.
type HotQuery struct {
	K         int
	MinLen    int
	MaxLen    int
	Threshold float64
}

// Hot runs a hot-subpath query (live on open monolithic sessions, exact
// on sealed ones).
func (c *Client) Hot(id string, q HotQuery) (HotResult, error) {
	v := url.Values{}
	if q.K != 0 {
		v.Set("k", strconv.Itoa(q.K))
	}
	if q.MinLen != 0 {
		v.Set("min", strconv.Itoa(q.MinLen))
	}
	if q.MaxLen != 0 {
		v.Set("max", strconv.Itoa(q.MaxLen))
	}
	if q.Threshold != 0 {
		v.Set("threshold", strconv.FormatFloat(q.Threshold, 'g', -1, 64))
	}
	path := "/v1/sessions/" + url.PathEscape(id) + "/hot"
	if len(v) > 0 {
		path += "?" + v.Encode()
	}
	var res HotResult
	err := c.do("GET", path, "", nil, &res)
	return res, err
}

// Evict removes the session.
func (c *Client) Evict(id string) error {
	return c.do("DELETE", "/v1/sessions/"+url.PathEscape(id), "", nil, nil)
}

// Info fetches one session's state.
func (c *Client) Info(id string) (SessionInfo, error) {
	var info SessionInfo
	err := c.do("GET", "/v1/sessions/"+url.PathEscape(id), "", nil, &info)
	return info, err
}
