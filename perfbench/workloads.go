package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"time"

	"cogg/internal/blob"
	"cogg/internal/server"
)

// endToEnd adds the figures every workload reports with tracing off.
// Throughput and latency cover the pass's calm one-second slices (see
// stealClock.calm): on a shared host, slices in which the hypervisor
// gave much CPU time to other guests price the neighbours, not the
// daemon.
func endToEnd(rep *report, led *ledger, setups []float64, clock *stealClock, rss float64) {
	rep.set("setup_s", "s", median(setups))
	keep := clock.calm()
	var lat []float64
	var span time.Duration
	ok, kept, steal := 0, 0, 0.0
	for i, k := range keep {
		if k {
			kept, span, steal = kept+1, span+clock.length(i), steal+clock.steal[i]
		}
	}
	for _, s := range led.samples {
		if w := clock.slice(s.at); w >= 0 && keep[w] {
			lat = append(lat, s.ms)
			ok += s.ok
		}
	}
	rep.set("units_per_s", "1/s", float64(ok)/span.Seconds())
	latencyMetrics(rep, lat)
	rep.set("success_rate", "ratio", float64(led.units-led.failed)/float64(max(led.units, 1)))
	rep.set("peak_rss_mb", "MB", rss)
	rep.note("set-up samples in calm slices: %d; error rate %.6f (%d of %d units)", len(setups),
		float64(led.failed)/float64(max(led.units, 1)), led.failed, led.units)
	rep.note("timed over %d of %d one-second slices; steal %.1f%% in them, per slice %.0f%%",
		kept, len(keep), 100*steal/float64(max(kept, 1)), percent(clock.steal))
}

// percent scales shares to percentages for printing.
func percent(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = 100 * x
	}
	return out
}

// perLayer starts a traced run's report: the pass's ledger, the
// daemon's deck-index size, and what the trace ledger read from the
// daemons.
func perLayer(rep *report, led *ledger, tr *traceLedger, entries int) *report {
	lay := newReport()
	lay.attempted, lay.failed, lay.problems = rep.attempted, rep.failed, rep.problems
	lay.set("blob.index_entries", "count", float64(entries))
	tr.report(lay, led.samples)
	return lay
}

// prepopulate builds the default spec's table module into dir with a
// throwaway daemon, so the measured set-ups start warm.
func prepopulate(dir string) error {
	d, err := startDaemon(dir)
	if err != nil {
		return err
	}
	d.stop()
	return nil
}

// deckCompiles sends one deck compile per program and returns the
// successful answers, counting failures on the report.
func deckCompiles(rep *report, c *http.Client, url string, progs []program) []*server.CompileResponse {
	out := make([]*server.CompileResponse, len(progs))
	for i, p := range progs {
		status, data, _, err := post(c, url+"/v1/compile", compileBody(p, true))
		var resp server.CompileResponse
		if err != nil || status != http.StatusOK || json.Unmarshal(data, &resp) != nil || resp.Failure != nil {
			rep.problem("%s: reference deck compile failed (status %d, err %v): %.200s", p.name, status, err, data)
			continue
		}
		out[i] = &resp
	}
	return out
}

// runBatchPascal: POST /v1/batch of 32 distinct programs without decks
// against a daemon started warm from a pre-populated module cache.
func runBatchPascal(cfg config) (*report, error) {
	const batchSize = 32
	rep := newReport()
	progs := makePrograms(cfg.seed, "bp", cfg.bpPrograms)
	dir := filepath.Join(cfg.work, "bp")
	if err := prepopulate(dir); err != nil {
		return nil, err
	}
	c := httpClient()
	d, setups, err := setUp(c, cfg.setupTime, func() (*daemon, error) { return startDaemon(dir) })
	if err != nil {
		return nil, err
	}
	defer d.stop()

	// Reference: one deck compile per program, executed and verified
	// before the timed pass; every timed listing must equal it.
	refs := verifyDecks(rep, progs, deckCompiles(rep, c, d.url, progs))
	ix, err := blob.ReadIndex(dir)
	if err != nil {
		return nil, fmt.Errorf("reading the deck index: %w", err)
	}

	var batches [][]byte
	for lo := 0; lo+batchSize <= len(progs); lo += batchSize {
		req := server.BatchRequest{}
		for _, p := range progs[lo : lo+batchSize] {
			req.Units = append(req.Units, compileRequest(p, false))
		}
		batches = append(batches, mustJSON(req))
	}
	if len(batches) == 0 {
		return nil, fmt.Errorf("batch-pascal needs at least %d programs", batchSize)
	}
	resetPeakRSS(rep)
	led := &ledger{}
	tr := newTraceLedger(cfg.seconds)
	var base []counters
	if cfg.trace {
		base = tr.begin(d.url)
	}
	clock := startStealClock()
	closedLoop(clock.start.Add(time.Duration(cfg.seconds*float64(time.Second))), func(_, job int) {
		b := job % len(batches)
		traced := tr.traced()
		status, data, lat, err := post(c, d.url+"/v1/batch", batches[b])
		s := sample{ms: ms(lat), traced: traced}
		var resp server.BatchResponse
		if err != nil || status != http.StatusOK || json.Unmarshal(data, &resp) != nil || len(resp.Results) != batchSize {
			led.add(s, batchSize, batchSize)
			return
		}
		bad := 0
		for j := range resp.Results {
			ref := refs[b*batchSize+j]
			if resp.Results[j].Failure != nil || ref == nil || !sameAnswer(ref, &resp.Results[j]) {
				bad++
			}
		}
		led.add(s, batchSize, bad)
	})
	clock.end()
	rss := peakRSSMB()
	rep.attempted, rep.failed = led.units, led.failed
	if led.failed > 0 {
		rep.problem("%d timed units failed or returned a listing that differs from the verified deck compile", led.failed)
	}
	if !cfg.trace {
		endToEnd(rep, led, setups, clock, rss)
		probeDefects(rep, c, d.url, progs)
		return rep, nil
	}
	tr.end(base)
	lay := perLayer(rep, led, tr, len(ix.Entries))
	if err := replayCluster(lay, d.url, "/v1/batch", batches); err != nil {
		return nil, err
	}
	if err := replayLayers(lay, cfg, progs, refs); err != nil {
		return nil, err
	}
	probeDefects(lay, c, d.url, progs)
	return lay, nil
}

// runFleetHot: POST /v1/compile with deck:true through the cluster
// front to two replicas sharing one disk cache; requests are Zipf draws
// from a hot set that fits the memory tier, so after the first touch
// every request is a deck-cache read.
func runFleetHot(cfg config) (*report, error) {
	rep := newReport()
	progs := makePrograms(cfg.seed, "fh", cfg.fhPrograms)
	bodies := make([][]byte, len(progs))
	for i, p := range progs {
		bodies[i] = compileBody(p, true)
	}
	dir := filepath.Join(cfg.work, "fh")
	if err := prepopulate(dir); err != nil {
		return nil, err
	}
	c := httpClient()
	f, setups, err := setUp(c, cfg.setupTime, func() (*fleet, error) { return startFleet(dir) })
	if err != nil {
		return nil, err
	}
	defer f.stop()

	// First touch: every hot program compiled once through the front,
	// its deck executed and verified.
	refs := verifyDecks(rep, progs, deckCompiles(rep, c, f.front.url, progs))
	ix, err := blob.ReadIndex(dir)
	if err != nil {
		return nil, fmt.Errorf("reading the deck index: %w", err)
	}

	resetPeakRSS(rep)
	led := &ledger{}
	tr := newTraceLedger(cfg.seconds)
	urls := []string{f.reps[0].url, f.reps[1].url, f.front.url}
	var base []counters
	var attempts0 int64
	if cfg.trace {
		base = tr.begin(urls...)
		attempts0 = f.client.Snapshot().Attempts
	}
	zipfs := make([]*rand.Zipf, clients)
	for w := range zipfs {
		zipfs[w] = rand.NewZipf(rand.New(rand.NewSource(mix(cfg.seed, "fh-zipf", w))), 1.1, 1, uint64(len(progs)-1))
	}
	clock := startStealClock()
	closedLoop(clock.start.Add(time.Duration(cfg.seconds*float64(time.Second))), func(w, job int) {
		i := int(zipfs[w].Uint64())
		traced := tr.traced()
		status, data, lat, err := post(c, f.front.url+"/v1/compile", bodies[i])
		s := sample{ms: ms(lat), traced: traced}
		var resp server.CompileResponse
		if err != nil || status != http.StatusOK || json.Unmarshal(data, &resp) != nil || resp.Failure != nil ||
			refs[i] == nil || !sameAnswer(refs[i], &resp) || resp.Deck == "" {
			led.add(s, 1, 1)
			return
		}
		led.add(s, 1, 0)
	})
	clock.end()
	rss := peakRSSMB()
	rep.attempted, rep.failed = led.units, led.failed
	if led.failed > 0 {
		rep.problem("%d timed requests failed or returned a deck that differs from the verified one", led.failed)
	}
	if !cfg.trace {
		endToEnd(rep, led, setups, clock, rss)
		probeDefects(rep, c, f.front.url, progs)
		return rep, nil
	}
	tr.end(base)
	lay := perLayer(rep, led, tr, len(ix.Entries))
	lay.set("cluster.attempts_per_request", "ratio",
		float64(f.client.Snapshot().Attempts-attempts0)/float64(max(len(led.samples), 1)))
	if err := replayLayers(lay, cfg, progs, refs); err != nil {
		return nil, err
	}
	probeDefects(lay, c, f.front.url, progs)
	return lay, nil
}
