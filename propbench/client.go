package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"strings"
	"time"
)

// answer is the part of a /v1/search response the benchmark checks.
type answer struct {
	HPF     float64 `json:"hpf"`
	Results []struct {
		ID string `json:"id"`
	} `json:"results"`
}

func (a answer) ids() []string {
	out := make([]string, len(a.Results))
	for i, r := range a.Results {
		out[i] = r.ID
	}
	return out
}

// newClient returns a client whose transport opens at most conns
// connections to the server; requests beyond that wait for one.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// do sends search s to the server at base.
func do(ctx context.Context, c *http.Client, base string, s *searchReq) outcome {
	var out outcome
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/search?"+s.query(), nil)
	if err != nil {
		out.err = err
		return out
	}
	req = req.WithContext(httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) { out.gotConn = time.Now() },
	}))
	resp, err := c.Do(req)
	if err != nil {
		out.err = err
		return out
	}
	defer resp.Body.Close()
	out.status = resp.StatusCode
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		out.err = err
		return out
	}
	out.appMS, out.stageMS = parseServerTiming(resp.Header.Get("Server-Timing"))
	if out.status == http.StatusOK {
		if err := json.Unmarshal(body, &out.ans); err != nil {
			out.err = fmt.Errorf("decoding answer: %w", err)
		}
	}
	return out
}

// parseServerTiming reads "app;dur=X, retrieve;dur=Y, ..." and returns
// app and the sum of the retrieve, select and render entries, in ms.
func parseServerTiming(h string) (app, stages float64) {
	for _, e := range strings.Split(h, ",") {
		name, dur, ok := strings.Cut(strings.TrimSpace(e), ";dur=")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(dur, 64)
		if err != nil {
			continue
		}
		switch name {
		case "app":
			app = v
		case "retrieve", "select", "render":
			stages += v
		}
	}
	return app, stages
}

// getJSON decodes GET base+path into v.
func getJSON(c *http.Client, base, path string, v any) error {
	resp, err := c.Get(base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
