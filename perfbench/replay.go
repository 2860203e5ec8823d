package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"

	"repro/internal/davproto"
	"repro/internal/xmldom"
)

// captureDepth1 fetches one selected-properties Depth 1 multistatus body
// over a fresh connection, outside the measured window, for replay.
func captureDepth1(base, coll string, idx []int) ([]byte, error) {
	body := davproto.MarshalPropfind(davproto.Propfind{Kind: davproto.PropfindProps, Props: names(idx)})
	req, err := http.NewRequest("PROPFIND", base+coll, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Depth", "1")
	req.Header.Set("Content-Type", `text/xml; charset="utf-8"`)
	hc := &http.Client{Timeout: time.Minute, Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusMultiStatus {
		return nil, fmt.Errorf("PROPFIND %s: status %d, want 207", coll, resp.StatusCode)
	}
	return out, nil
}

// replayRuns is how many times each public parser sees the captured
// body; the median run is reported.
const replayRuns = 41

// replayLayers times the client-side parse layers on a captured body:
// davproto.ParseMultistatus (DOM) and xmldom.ScanSAX (no tree).
func replayLayers(body []byte, wantResponses int) (map[string]float64, error) {
	ms, err := davproto.ParseMultistatus(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if len(ms.Responses) != wantResponses {
		return nil, fmt.Errorf("captured multistatus has %d responses, want %d", len(ms.Responses), wantResponses)
	}
	parse := func() error {
		_, err := davproto.ParseMultistatus(bytes.NewReader(body))
		return err
	}
	scan := func() error { return xmldom.ScanSAX(bytes.NewReader(body), xmldom.SAXHandler{}) }
	parseUS, err := medianRun(parse)
	if err != nil {
		return nil, err
	}
	scanUS, err := medianRun(scan)
	if err != nil {
		return nil, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < replayRuns; i++ {
		parse()
	}
	runtime.ReadMemStats(&after)
	return map[string]float64{
		"davproto.parse_multistatus_us":     parseUS,
		"davproto.parse_multistatus_allocs": float64(after.Mallocs-before.Mallocs) / replayRuns,
		"xmldom.scan_sax_us":                scanUS,
	}, nil
}

// medianRun times fn replayRuns times and returns the median in µs.
func medianRun(fn func() error) (float64, error) {
	ds := make([]float64, replayRuns)
	for i := range ds {
		t := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds[i] = float64(time.Since(t).Nanoseconds()) / 1e3
	}
	return quantile(ds, 0.5), nil
}
