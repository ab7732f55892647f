package main

import (
	"bufio"
	"context"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"cogg/internal/cluster"
	"cogg/internal/obs"
	"cogg/internal/server"
)

// tracePoll is how often the traced run reads /v1/traces; the daemon
// keeps its last 64 traces and each read takes the newest 16, so this
// samples rather than collects all.
const tracePoll = 100 * time.Millisecond

// traceSlice is how long the traced run scrapes the daemons before
// pausing for as long again; latencies from the two kinds of slice give
// the tracing overhead within one run.
const traceSlice = 500 * time.Millisecond

// traceLedger reads what the daemons already export — /v1/traces span
// trees, /varz counters, /metrics blob counters — around one pass of a
// workload, without changing the daemon.
type traceLedger struct {
	c     *http.Client
	slice time.Duration
	urls  []string
	start time.Time

	scraping bool // between begin and end

	stopc chan struct{}
	done  chan struct{}

	mu     sync.Mutex
	traces map[string]*obs.TraceData

	// Counter deltas summed over every begin/end pair.
	batches, batchedUnits, accepted int64
	hits, misses                    float64
}

// newTraceLedger sizes the traced and untraced slices so that a pass of
// the given length has at least four of them. The ledger reads through
// its own client, leaving the closed-loop clients their two connections.
func newTraceLedger(seconds float64) *traceLedger {
	slice := min(traceSlice, time.Duration(seconds*float64(time.Second))/4)
	return &traceLedger{c: httpClient(), slice: slice, traces: map[string]*obs.TraceData{}}
}

// traced reports whether the pass is being scraped right now: the
// pass alternates untraced and traced slices.
func (t *traceLedger) traced() bool {
	return t.scraping && int(time.Since(t.start)/t.slice)%2 == 1
}

type counters struct {
	varz         server.Varz
	hits, misses float64
}

// begin takes the counter baselines of urls and starts the poller,
// which scrapes /v1/traces during the traced slices.
func (t *traceLedger) begin(urls ...string) []counters {
	t.urls, t.start, t.scraping = urls, time.Now(), true
	base := t.counters()
	t.stopc, t.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(t.done)
		tick := time.NewTicker(tracePoll)
		defer tick.Stop()
		for {
			select {
			case <-t.stopc:
				return
			case <-tick.C:
				if t.traced() {
					t.scrapeTraces()
				}
			}
		}
	}()
	return base
}

// end stops the poller and adds the counter deltas since begin.
func (t *traceLedger) end(base []counters) {
	close(t.stopc)
	<-t.done
	t.scraping = false
	for i, now := range t.counters() {
		b := base[i]
		t.batches += now.varz.Server.Batches - b.varz.Server.Batches
		t.batchedUnits += now.varz.Server.BatchedUnits - b.varz.Server.BatchedUnits
		t.accepted += now.varz.Server.Accepted - b.varz.Server.Accepted
		t.hits += now.hits - b.hits
		t.misses += now.misses - b.misses
	}
}

func (t *traceLedger) counters() []counters {
	out := make([]counters, len(t.urls))
	for i, u := range t.urls {
		_ = getJSON(t.c, u+"/varz", &out[i].varz) // a front's /varz has no server section: zeros
		out[i].hits, out[i].misses = blobCounters(t.c, u)
	}
	return out
}

// blobCounters sums cogg_blob_hits_total and cogg_blob_misses_total
// over every backend in one /metrics exposition.
func blobCounters(c *http.Client, base string) (hits, misses float64) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return 0, 0
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		var dst *float64
		switch {
		case strings.HasPrefix(line, "cogg_blob_hits_total{"):
			dst = &hits
		case strings.HasPrefix(line, "cogg_blob_misses_total{"):
			dst = &misses
		default:
			continue
		}
		f := strings.Fields(line)
		if v, err := strconv.ParseFloat(f[len(f)-1], 64); err == nil {
			*dst += v
		}
	}
	return hits, misses
}

func (t *traceLedger) scrapeTraces() {
	for _, u := range t.urls {
		var tr server.TracesResponse
		if getJSON(t.c, u+"/v1/traces?n=16", &tr) != nil {
			continue
		}
		t.mu.Lock()
		for _, td := range tr.Traces {
			t.traces[u+"|"+td.ID] = td
		}
		t.mu.Unlock()
	}
}

// report adds the daemon-side per-layer figures and the tracing
// overhead: the traced slices' p50 over the untraced slices' p50.
func (t *traceLedger) report(rep *report, samples []sample) {
	var queue, overhead, do []float64
	for _, td := range t.traces {
		req, unit := int64(-1), int64(-1)
		reqIdx := -1
		for i, s := range td.Spans {
			if s.Name == "request" && s.Parent < 0 {
				reqIdx, req = i, s.DurNS
			}
		}
		for _, s := range td.Spans {
			if s.DurNS < 0 {
				continue
			}
			switch {
			case s.Name == "queue-wait":
				queue = append(queue, float64(s.DurNS)/1e3)
			case strings.HasPrefix(s.Name, "cluster:"):
				do = append(do, float64(s.DurNS)/1e3)
			case strings.HasPrefix(s.Name, "unit:") && s.Parent == reqIdx && s.DurNS > unit:
				unit = s.DurNS
			}
		}
		if req >= 0 && unit >= 0 {
			overhead = append(overhead, float64(req-unit)/1e3)
		}
	}
	rep.set("server.queue_wait_us", "us", median(queue))
	rep.set("server.overhead_us", "us", median(overhead))
	if len(do) > 0 {
		rep.set("cluster.do_us", "us", median(do))
	}
	units := float64(t.batchedUnits) / float64(max(t.batches, 1))
	if t.batches == 0 {
		// /v1/batch bypasses the micro-batch collector: a client batch is
		// one dispatch.
		units = float64(t.accepted) / float64(max(len(samples), 1))
	}
	rep.set("server.batch_units", "count", units)
	rep.set("blob.hit_ratio", "ratio", t.hits/max(t.hits+t.misses, 1))
	var on, off []float64
	for _, s := range samples {
		if s.traced {
			on = append(on, s.ms)
		} else {
			off = append(off, s.ms)
		}
	}
	if len(on) == 0 || len(off) == 0 {
		rep.problem("the pass had no traced or no untraced requests to compare")
	} else {
		rep.set("trace.overhead_ratio", "ratio", median(on)/median(off))
	}
	rep.note("traces read: %d (%d queue-wait spans); traced requests %d, untraced %d",
		len(t.traces), len(queue), len(on), len(off))
}

// replayCluster sends a workload's requests through a cluster client
// with the daemon as its one replica, for workloads that have no front:
// the client's policy span is the cluster layer's cost, and its attempt
// counter its retries and hedges. The figures price the cluster layer
// on this workload's requests, not a hop the workload itself makes.
func replayCluster(rep *report, url, path string, bodies [][]byte) error {
	c, err := cluster.New(cluster.Options{
		Targets:        []string{url},
		MaxRetries:     3,
		AttemptTimeout: 10 * time.Second,
		ProbeInterval:  -1,
	})
	if err != nil {
		return err
	}
	defer c.Close()
	var do []float64
	n := min(len(bodies), 64)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		res, err := c.Do(context.Background(), path, "", bodies[i])
		do = append(do, us(time.Since(t0)))
		if err != nil || res.Status != http.StatusOK {
			rep.problem("cluster replay %s request %d failed: %v", path, i, err)
		}
	}
	rep.set("cluster.do_us", "us", median(do))
	rep.set("cluster.attempts_per_request", "ratio", float64(c.Snapshot().Attempts)/float64(max(n, 1)))
	return nil
}
