// Package client is the Go client for datachatd: it speaks the
// internal/wire protocol over HTTP so tests, examples, and load generators
// drive a remote DataChat deployment exactly like an in-process one. Errors
// come back typed — IsBusy recognizes the §2.4 session-lock 409, IsThrottled
// the admission-control 429 — so callers can implement their own retry
// discipline on top.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"datachat/internal/dataset"
	"datachat/internal/plan"
	"datachat/internal/wire"
)

// Client talks to one datachatd.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTP is the transport; nil means http.DefaultClient.
	HTTP *http.Client
}

// New returns a client for the daemon at baseURL.
func New(baseURL string) *Client { return &Client{BaseURL: baseURL} }

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// do issues one JSON request and decodes the response into out (which may
// be nil). Non-2xx responses decode into a *wire.Error.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return fmt.Errorf("client: building request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeError(resp)
	}
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := wire.DecodeJSON(resp.Body, out); err != nil {
		return fmt.Errorf("client: decoding %s %s response: %w", method, path, err)
	}
	return nil
}

func decodeError(resp *http.Response) error {
	e := &wire.Error{Status: resp.StatusCode, Code: wire.CodeInternal}
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err := json.Unmarshal(data, e); err != nil || e.Message == "" {
		e.Message = fmt.Sprintf("http %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	e.Status = resp.StatusCode
	return e
}

// asWireError extracts the typed payload from err.
func asWireError(err error) (*wire.Error, bool) {
	var e *wire.Error
	if errors.As(err, &e) {
		return e, true
	}
	return nil, false
}

// IsBusy reports whether err is the §2.4 session-lock refusal (409).
func IsBusy(err error) bool {
	e, ok := asWireError(err)
	return ok && e.Code == wire.CodeBusy
}

// IsThrottled reports whether err is an admission-control refusal (429).
func IsThrottled(err error) bool {
	e, ok := asWireError(err)
	return ok && e.Code == wire.CodeThrottled
}

// IsDraining reports whether err is a shutdown refusal (503).
func IsDraining(err error) bool {
	e, ok := asWireError(err)
	return ok && e.Code == wire.CodeDraining
}

// IsDeadline reports whether err is a deadline expiry (504).
func IsDeadline(err error) bool {
	e, ok := asWireError(err)
	return ok && e.Code == wire.CodeDeadline
}

// RetryAfter returns the server's backoff hint attached to a busy or
// throttled error, or 0.
func RetryAfter(err error) int64 {
	if e, ok := asWireError(err); ok {
		return e.RetryAfterMs
	}
	return 0
}

// --- Sessions ---

// CreateSession opens a session owned by owner.
func (c *Client) CreateSession(ctx context.Context, name, owner string) (*wire.SessionInfo, error) {
	var out wire.SessionInfo
	err := c.do(ctx, http.MethodPost, "/v1/sessions", wire.CreateSessionRequest{Name: name, Owner: owner}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Sessions lists open session names.
func (c *Client) Sessions(ctx context.Context) ([]string, error) {
	var out wire.SessionsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/sessions", nil, &out); err != nil {
		return nil, err
	}
	return out.Sessions, nil
}

// SessionInfo describes one session.
func (c *Client) SessionInfo(ctx context.Context, name string) (*wire.SessionInfo, error) {
	var out wire.SessionInfo
	if err := c.do(ctx, http.MethodGet, "/v1/sessions/"+url.PathEscape(name), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ShareSession grants with access ("view" or "edit") on a session.
func (c *Client) ShareSession(ctx context.Context, name, by, with, access string) error {
	return c.do(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(name)+"/share",
		wire.ShareSessionRequest{By: by, With: with, Access: access}, nil)
}

// --- Execution ---

// Run executes one run request (GEL, Python, phrase, or explicit program).
func (c *Client) Run(ctx context.Context, session string, req wire.RunRequest) (*wire.RunResponse, error) {
	var out wire.RunResponse
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(session)+"/run", req, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// RunGEL executes one GEL sentence (current names the implicit dataset).
func (c *Client) RunGEL(ctx context.Context, session, user, line, current string) (*wire.RunResponse, error) {
	return c.Run(ctx, session, wire.RunRequest{User: user, GEL: line, Current: current})
}

// RunPython executes a DataChat Python API script.
func (c *Client) RunPython(ctx context.Context, session, user, src string) (*wire.RunResponse, error) {
	return c.Run(ctx, session, wire.RunRequest{User: user, Python: src})
}

// RunPhrase executes a §4.8 phrase-based request against a dataset.
func (c *Client) RunPhrase(ctx context.Context, session, user, input, datasetName string) (*wire.RunResponse, error) {
	return c.Run(ctx, session, wire.RunRequest{User: user, Phrase: input, Dataset: datasetName})
}

// Explain fetches the EXPLAIN report for the step producing output
// ("" = the session's latest step) without executing anything.
func (c *Client) Explain(ctx context.Context, session, output string) (*plan.Explain, error) {
	var out wire.ExplainResponse
	path := "/v1/sessions/" + url.PathEscape(session) + "/explain"
	if output != "" {
		path += "?output=" + url.QueryEscape(output)
	}
	if err := c.do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return out.Explain, nil
}

// --- Rows ---

// Rows fetches one page of a session dataset.
func (c *Client) Rows(ctx context.Context, session, datasetName string, offset, limit int) (*wire.Table, error) {
	var out wire.Table
	path := fmt.Sprintf("/v1/sessions/%s/datasets/%s?offset=%d&limit=%d",
		url.PathEscape(session), url.PathEscape(datasetName), offset, limit)
	if err := c.do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// FetchTable pages through a session dataset and reassembles it as a typed
// table.
func (c *Client) FetchTable(ctx context.Context, session, datasetName string, pageSize int) (*dataset.Table, error) {
	if pageSize <= 0 {
		pageSize = 1000
	}
	var full *wire.Table
	offset := 0
	for {
		page, err := c.Rows(ctx, session, datasetName, offset, pageSize)
		if err != nil {
			return nil, err
		}
		if full == nil {
			full = page
		} else {
			full.Rows = append(full.Rows, page.Rows...)
		}
		if page.NextOffset < 0 {
			break
		}
		offset = page.NextOffset
	}
	return full.Decode()
}

// consumeStream reads an NDJSON row stream from body: the header line first,
// then fn once per data chunk in order; a chunk's rows are fn's to keep, since
// no later chunk reuses their memory. Data lines go through rowChunkDecoder,
// everything else through wire.DecodeJSON. The terminal sentinel chunk (Last
// set) is consumed here, never passed to fn: a server-side failure recorded
// in it comes back as a *wire.Error, and a stream that ends without one is
// reported as truncated — a dropped connection can no longer masquerade as a
// short table. On success the returned header's TotalRows reflects the
// sentinel's final count, and any execution stats the server attached to the
// sentinel (morsel workers, buffered-row peak, spill activity) are returned
// alongside — even when the sentinel also carries an error.
func consumeStream(body io.Reader, what string, fn func(header *wire.Table, rows wire.RowChunk) error) (*wire.Table, *wire.StreamStats, error) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	var header *wire.Table
	var stats *wire.StreamStats
	var chunks rowChunkDecoder
	sawLast := false
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if header == nil {
			var h wire.Table
			if err := wire.DecodeJSON(bytes.NewReader(line), &h); err != nil {
				return nil, nil, fmt.Errorf("client: decoding stream header: %w", err)
			}
			header = &h
			continue
		}
		rc, ok := chunks.decode(line)
		if !ok {
			if err := wire.DecodeJSON(bytes.NewReader(line), &rc); err != nil {
				return nil, nil, fmt.Errorf("client: decoding stream chunk: %w", err)
			}
		}
		if rc.Last {
			sawLast = true
			header.TotalRows = rc.TotalRows
			stats = rc.Stats
			if rc.Error != nil {
				return nil, stats, rc.Error
			}
			break
		}
		if fn != nil {
			if err := fn(header, rc); err != nil {
				return nil, nil, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("client: reading stream: %w", err)
	}
	if header == nil {
		return nil, nil, fmt.Errorf("client: empty stream for %s", what)
	}
	if !sawLast {
		return nil, nil, fmt.Errorf("client: stream for %s truncated before the terminal chunk", what)
	}
	return header, stats, nil
}

// StreamRows consumes the chunked row stream of a session dataset: the
// header arrives first, then fn is called once per chunk in order. fn may
// be nil to drain the stream (e.g. to measure it).
func (c *Client) StreamRows(ctx context.Context, session, datasetName string, chunk int, fn func(header *wire.Table, rows wire.RowChunk) error) (*wire.Table, error) {
	path := fmt.Sprintf("%s/v1/sessions/%s/datasets/%s/stream?chunk=%d",
		c.BaseURL, url.PathEscape(session), url.PathEscape(datasetName), chunk)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, path, nil)
	if err != nil {
		return nil, fmt.Errorf("client: building stream request: %w", err)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: streaming %s/%s: %w", session, datasetName, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return nil, decodeError(resp)
	}
	header, _, err := consumeStream(resp.Body, session+"/"+datasetName, fn)
	return header, err
}

// RunStream executes one run request with the result streamed back as it is
// produced: the target step runs through the server's morsel pipeline and fn
// is called once per chunk, so first rows arrive while execution is still in
// flight. The returned header carries the schema; its TotalRows is the final
// streamed count. Errors raised after streaming began (deadline, engine
// failure) arrive via the terminal sentinel and come back typed, exactly
// like pre-stream refusals.
func (c *Client) RunStream(ctx context.Context, session string, req wire.RunRequest, fn func(header *wire.Table, rows wire.RowChunk) error) (*wire.Table, error) {
	header, _, err := c.RunStreamStats(ctx, session, req, fn)
	return header, err
}

// RunStreamStats is RunStream returning also the execution stats the server
// attached to the terminal sentinel: the resolved morsel worker count, the
// buffered-row peak against the request's memory budget, and how much the
// engine spilled to disk. Stats may be non-nil even when err is a post-stream
// failure (they describe the partial execution); nil when the server sent
// none.
func (c *Client) RunStreamStats(ctx context.Context, session string, req wire.RunRequest, fn func(header *wire.Table, rows wire.RowChunk) error) (*wire.Table, *wire.StreamStats, error) {
	data, err := json.Marshal(req)
	if err != nil {
		return nil, nil, fmt.Errorf("client: encoding request: %w", err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.BaseURL+"/v1/sessions/"+url.PathEscape(session)+"/run/stream", bytes.NewReader(data))
	if err != nil {
		return nil, nil, fmt.Errorf("client: building stream request: %w", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.httpClient().Do(hreq)
	if err != nil {
		return nil, nil, fmt.Errorf("client: streaming run on %s: %w", session, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return nil, nil, decodeError(resp)
	}
	return consumeStream(resp.Body, session+"/run", fn)
}

// RunStreamTable is RunStream with the chunks reassembled into a typed table.
func (c *Client) RunStreamTable(ctx context.Context, session string, req wire.RunRequest) (*dataset.Table, error) {
	var full *wire.Table
	header, err := c.RunStream(ctx, session, req, func(h *wire.Table, rc wire.RowChunk) error {
		if full == nil {
			cp := *h
			cp.Rows = nil
			full = &cp
		}
		full.Rows = append(full.Rows, rc.Rows...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if full == nil {
		full = header
	}
	return full.Decode()
}

// StreamTable reassembles a full dataset from the chunked row stream.
func (c *Client) StreamTable(ctx context.Context, session, datasetName string, chunk int) (*dataset.Table, error) {
	var full *wire.Table
	header, err := c.StreamRows(ctx, session, datasetName, chunk, func(h *wire.Table, rc wire.RowChunk) error {
		if full == nil {
			cp := *h
			cp.Rows = nil
			full = &cp
		}
		full.Rows = append(full.Rows, rc.Rows...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if full == nil {
		full = header
	}
	return full.Decode()
}

// --- Artifacts ---

// SaveArtifact persists the step producing output ("" = latest) as a named
// artifact.
func (c *Client) SaveArtifact(ctx context.Context, session string, req wire.SaveArtifactRequest) (*wire.ArtifactInfo, error) {
	var out wire.ArtifactInfo
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(session)+"/artifacts", req, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Artifacts lists artifact names user can view.
func (c *Client) Artifacts(ctx context.Context, user string) ([]string, error) {
	var out wire.ArtifactsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/artifacts?user="+url.QueryEscape(user), nil, &out); err != nil {
		return nil, err
	}
	return out.Artifacts, nil
}

// Artifact fetches an artifact (metadata, recipe, payload page).
func (c *Client) Artifact(ctx context.Context, name, user string, maxRows int) (*wire.ArtifactInfo, error) {
	var out wire.ArtifactInfo
	path := "/v1/artifacts/" + url.PathEscape(name) + "?user=" + url.QueryEscape(user) +
		"&max_rows=" + strconv.Itoa(maxRows)
	if err := c.do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Recipe fetches an artifact's recipe with its GEL/Python/SQL renderings.
func (c *Client) Recipe(ctx context.Context, name, user string) (*wire.RecipeResponse, error) {
	var out wire.RecipeResponse
	path := "/v1/artifacts/" + url.PathEscape(name) + "/recipe?user=" + url.QueryEscape(user)
	if err := c.do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ShareArtifact grants with access ("view" or "edit") on an artifact.
func (c *Client) ShareArtifact(ctx context.Context, name, by, with, access string) error {
	return c.do(ctx, http.MethodPost, "/v1/artifacts/"+url.PathEscape(name)+"/share",
		wire.ShareArtifactRequest{By: by, With: with, Access: access}, nil)
}

// MintLink creates a secret link granting account-less view access (§2.4).
func (c *Client) MintLink(ctx context.Context, name, by string) (string, error) {
	var out wire.LinkResponse
	err := c.do(ctx, http.MethodPost, "/v1/artifacts/"+url.PathEscape(name)+"/links",
		wire.LinkRequest{By: by}, &out)
	if err != nil {
		return "", err
	}
	return out.Secret, nil
}

// ResolveLink fetches the artifact behind a secret link, no account needed.
func (c *Client) ResolveLink(ctx context.Context, secret string) (*wire.ArtifactInfo, error) {
	var out wire.ArtifactInfo
	if err := c.do(ctx, http.MethodGet, "/v1/links/"+url.PathEscape(secret), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// RefreshArtifact replays an artifact's recipe in a session on the latest
// data.
func (c *Client) RefreshArtifact(ctx context.Context, name, user, session string) (*wire.ArtifactInfo, error) {
	var out wire.ArtifactInfo
	err := c.do(ctx, http.MethodPost, "/v1/artifacts/"+url.PathEscape(name)+"/refresh",
		map[string]string{"user": user, "session": session}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// --- Platform ---

// RegisterFile uploads CSV content loadable by name in sessions created
// afterwards.
func (c *Client) RegisterFile(ctx context.Context, name, content string) error {
	return c.do(ctx, http.MethodPost, "/v1/files", wire.FileRequest{Name: name, Content: content}, nil)
}

// Statsz fetches the deployment's execution/cache/server counters.
func (c *Client) Statsz(ctx context.Context) (*wire.Statsz, error) {
	var out wire.Statsz
	if err := c.do(ctx, http.MethodGet, "/statsz", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health pings the daemon.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}
