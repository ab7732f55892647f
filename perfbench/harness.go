package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cogg/internal/cluster"
	"cogg/internal/loader"
	"cogg/internal/obs"
	"cogg/internal/rt370"
	"cogg/internal/server"
)

// clients is the number of closed-loop client connections: callers are
// build tools that wait for each reply, one per core of the 2-core
// machine the benchmark was sized on.
const clients = 2

// maxSteps bounds one program's simulated run; the generated programs
// need well under a million instructions.
const maxSteps = 20_000_000

// listener is an http.Server on a loopback port and the goroutine
// serving it.
type listener struct {
	hs   *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.hs.Serve(ln)
	}()
	return l, nil
}

// close shuts the server down, forcing it after a second: net/http
// waits five seconds for a connection that never sent a request (a
// canceled hedge's dial), and the daemons have drained by now.
func (l *listener) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if l.hs.Shutdown(ctx) != nil {
		_ = l.hs.Close()
	}
	<-l.done
}

// daemon is one in-process cogd.
type daemon struct {
	srv *server.Server
	*listener
}

func startDaemon(cacheDir string) (*daemon, error) {
	srv, err := server.New(server.Options{CacheDir: cacheDir, SlowLog: io.Discard})
	if err != nil {
		return nil, err
	}
	l, err := listen(srv.Handler())
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &daemon{srv: srv, listener: l}, nil
}

func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.srv.Drain(ctx)
	d.listener.close()
	d.srv.Close()
}

// fleet is two replicas sharing one disk cache behind an in-process
// cluster front, configured with cogdfront's defaults.
type fleet struct {
	reps   []*daemon
	client *cluster.Client
	front  *listener
}

func startFleet(cacheDir string) (*fleet, error) {
	f := &fleet{}
	for i := 0; i < 2; i++ {
		d, err := startDaemon(cacheDir)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.reps = append(f.reps, d)
	}
	c, err := cluster.New(cluster.Options{
		Targets:        []string{f.reps[0].url, f.reps[1].url},
		MaxRetries:     3,
		AttemptTimeout: 10 * time.Second,
		Registry:       obs.NewRegistry(),
	})
	if err != nil {
		f.stop()
		return nil, err
	}
	f.client = c
	front, err := listen(cluster.NewFront(c).Handler())
	if err != nil {
		f.stop()
		return nil, err
	}
	f.front = front
	return f, nil
}

func (f *fleet) stop() {
	if f.front != nil {
		f.front.close()
	}
	if f.client != nil {
		f.client.Close()
	}
	for _, d := range f.reps {
		d.stop()
	}
}

func (d *daemon) readyURL() string { return d.url }
func (f *fleet) readyURL() string  { return f.front.url }

// setUp starts instances one after another for about the given time,
// timing each from start to its first 200 from /readyz, stops all but
// the last, and returns the last with the set-up times that fell in
// calm slices (see stealClock.calm); all of them when the time is
// shorter than a slice.
func setUp[S interface {
	readyURL() string
	stop()
}](c *http.Client, d time.Duration, start func() (S, error)) (S, []float64, error) {
	clock := startStealClock()
	var last S
	var at []time.Time
	var times []float64
	for {
		t0 := time.Now()
		s, err := start()
		if err == nil {
			if err = waitReady(c, s.readyURL()); err != nil {
				s.stop()
			}
		}
		if err != nil {
			clock.end()
			return last, nil, err
		}
		at, times = append(at, t0), append(times, time.Since(t0).Seconds())
		if time.Since(clock.start) >= d {
			last = s
			break
		}
		s.stop()
	}
	clock.end()
	keep := clock.calm()
	var calm []float64
	for i, t := range at {
		if w := clock.slice(t); w >= 0 && keep[w] {
			calm = append(calm, times[i])
		}
	}
	if len(calm) == 0 {
		calm = times
	}
	return last, calm, nil
}

// httpClient keeps exactly one connection per closed-loop client.
func httpClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}
}

// waitReady polls GET /readyz until it answers 200.
func waitReady(c *http.Client, base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := c.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became ready (last error %v)", base, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// post sends one request and reads the whole reply; the latency covers
// the round trip through the last body byte.
func post(c *http.Client, url string, body []byte) (int, []byte, time.Duration, error) {
	t0 := time.Now()
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, time.Since(t0), err
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // request structs always marshal
	}
	return data
}

// compileBody is the /v1/compile request for one program.
func compileBody(p program, deck bool) []byte {
	return mustJSON(compileRequest(p, deck))
}

func compileRequest(p program, deck bool) server.CompileRequest {
	return server.CompileRequest{
		Name:    p.name,
		Source:  p.source,
		Deck:    deck,
		Options: server.CompileOptions{CSE: p.cse},
	}
}

// sample is one timed HTTP request.
type sample struct {
	ms     float64
	at     time.Time // when the reply was read
	ok     int       // units answered correctly
	traced bool      // issued while the traced run was scraping the daemon
}

// ledger collects the timed requests of one run from both clients.
type ledger struct {
	mu      sync.Mutex
	samples []sample
	units   int // units attempted
	failed  int // failed, refused, or wrong-output units
}

func (l *ledger) add(s sample, units, failed int) {
	s.at, s.ok = time.Now(), units-failed
	l.mu.Lock()
	l.samples = append(l.samples, s)
	l.units += units
	l.failed += failed
	l.mu.Unlock()
}

// closedLoop runs the clients until the deadline, handing out
// increasing job numbers; each client issues its next request only
// after the previous reply.
func closedLoop(deadline time.Time, do func(worker, job int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				do(w, int(next.Add(1)-1))
			}
		}(w)
	}
	wg.Wait()
}

// stealClock cuts a stretch of a run (the set-ups, the timed pass) into
// one-second slices and records the steal time of each: the share of
// CPU time that the hypervisor gave to other guests while this
// machine's CPUs wanted to run, as the kernel counts it in /proc/stat.
// On a shared host it swings from 0 to over 15% within minutes and
// slows every figure with it.
type stealClock struct {
	start      time.Time
	ends       []time.Time // when each slice ended
	steal      []float64   // per slice; zeros where /proc/stat is unreadable
	stop, done chan struct{}
}

func startStealClock() *stealClock {
	c := &stealClock{start: time.Now(), stop: make(chan struct{}), done: make(chan struct{})}
	prev := cpuTimes()
	go func() {
		defer close(c.done)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-c.stop:
				return
			case t := <-tick.C:
				now := cpuTimes()
				c.ends = append(c.ends, t)
				c.steal = append(c.steal, stealShare(prev, now))
				prev = now
			}
		}
	}()
	return c
}

// end stops the clock; the slices it recorded are whole seconds.
func (c *stealClock) end() {
	close(c.stop)
	<-c.done
}

// slice returns the index of the slice that holds t, or -1 when t is
// past the last slice.
func (c *stealClock) slice(t time.Time) int {
	i := sort.Search(len(c.ends), func(i int) bool { return t.Before(c.ends[i]) })
	if i == len(c.ends) {
		return -1
	}
	return i
}

// length is slice i's length.
func (c *stealClock) length(i int) time.Duration {
	if i == 0 {
		return c.ends[0].Sub(c.start)
	}
	return c.ends[i].Sub(c.ends[i-1])
}

// calmSteal is the steal share up to which a slice counts as calm.
const calmSteal = 0.02

// calm marks the slices whose steal share is at most calmSteal, or,
// when fewer than a third are, the third with the least steal. Without
// steal accounting every slice is calm.
func (c *stealClock) calm() []bool {
	keep := make([]bool, len(c.steal))
	n := 0
	for i, s := range c.steal {
		keep[i] = s <= calmSteal
		if keep[i] {
			n++
		}
	}
	if 3*n >= len(keep) {
		return keep
	}
	idx := make([]int, len(c.steal))
	for i := range idx {
		idx[i] = i
		keep[i] = false
	}
	sort.SliceStable(idx, func(a, b int) bool { return c.steal[idx[a]] < c.steal[idx[b]] })
	for _, i := range idx[:(len(idx)+2)/3] {
		keep[i] = true
	}
	return keep
}

// cpuTimes reads the machine-wide CPU time counters from /proc/stat:
// user, nice, system, idle, iowait, irq, softirq, steal, ...
func cpuTimes() []float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return nil
	}
	out := make([]float64, len(fields)-1)
	for i, f := range fields[1:] {
		out[i], _ = strconv.ParseFloat(f, 64)
	}
	return out
}

// stealShare is the steal share of the CPU time between two readings.
func stealShare(prev, now []float64) float64 {
	if len(prev) < 8 || len(now) != len(prev) {
		return 0
	}
	total := 0.0
	for i := range now[:8] { // guest time is already counted in user
		total += now[i] - prev[i]
	}
	if total <= 0 {
		return 0
	}
	return (now[7] - prev[7]) / total
}

// latencyMetrics adds the latency figures of a set of request times.
func latencyMetrics(rep *report, lat []float64) {
	rep.set("latency_p50_ms", "ms", median(lat))
	rep.set("latency_p99_ms", "ms", quantile(lat, 0.99))
	rep.note("latency samples: %d HTTP requests (%d beyond p99)", len(lat), len(lat)-int(0.99*float64(len(lat))+0.5))
}

// resetPeakRSS returns freed heap to the system and restarts the
// kernel's resident-set high-water mark, so that peakRSSMB read after
// the timed pass covers serving, not set-up or the output check.
func resetPeakRSS(rep *report) {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		rep.note("peak_rss_mb includes set-up: the high-water mark could not be reset (%v)", err)
	}
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// runDeck loads a returned card deck into a fresh simulator, runs it to
// completion, and returns its writeln output and instruction count.
func runDeck(deckB64 string) ([]int32, int, error) {
	raw, err := base64.StdEncoding.DecodeString(deckB64)
	if err != nil {
		return nil, 0, fmt.Errorf("deck is not base64: %v", err)
	}
	deck, err := loader.ReadCards(bytes.NewReader(raw))
	if err != nil {
		return nil, 0, err
	}
	cpu, err := rt370.NewCPU()
	if err != nil {
		return nil, 0, err
	}
	if err := deck.LoadInto(cpu.Mem, 0); err != nil {
		return nil, 0, err
	}
	if err := cpu.Run(maxSteps); err != nil {
		return nil, cpu.Steps, err
	}
	if flag := rt370.AbortFlag(cpu); flag != 0 {
		return nil, cpu.Steps, fmt.Errorf("runtime check class %d aborted the program", flag)
	}
	return rt370.Output(cpu), cpu.Steps, nil
}

func equalOutput(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// verifyDecks executes every program's deck and compares its output
// with the twin's. It returns the verified answers — the references
// every timed answer for a program must reproduce; nil where the check
// failed — and adds code_bytes and exec_steps over the distinct
// programs.
func verifyDecks(rep *report, progs []program, resps []*server.CompileResponse) []*server.CompileResponse {
	refs := make([]*server.CompileResponse, len(progs))
	codeBytes, steps := 0, 0
	for i, p := range progs {
		r := resps[i]
		if r == nil {
			rep.problem("%s: no successful deck compile to verify", p.name)
			continue
		}
		out, n, err := runDeck(r.Deck)
		if err != nil {
			rep.problem("%s: deck did not run: %v", p.name, err)
			continue
		}
		if !equalOutput(out, p.want) {
			rep.problem("%s: output %v, twin says %v", p.name, out, p.want)
			continue
		}
		refs[i] = r
		codeBytes += r.CodeBytes
		steps += n
	}
	rep.set("code_bytes", "bytes", float64(codeBytes))
	rep.set("exec_steps", "count", float64(steps))
	return refs
}

// sameAnswer reports whether a timed reply reproduces the reference
// compile (the deck too, when the reply carries one).
func sameAnswer(r, got *server.CompileResponse) bool {
	if got.Deck != "" && got.Deck != r.Deck {
		return false
	}
	return got.Listing == r.Listing && got.Tokens == r.Tokens && got.Reductions == r.Reductions &&
		got.Instructions == r.Instructions && got.CodeBytes == r.CodeBytes
}

// wrongCodeProbe is the smallest program known to be miscompiled under
// CSE: the subscript's scaled index i*4 and the stored value's i*4
// become one common subexpression, and the store clobbers the index.
// The long family's CSE compiles are refused before this can show, so
// probeDefects compiles it on its own.
var wrongCodeProbe = program{
	name:      "probe-wrongcode.pas",
	source:    "program p;\nvar a: array[0..15] of integer; i: integer;\nbegin\n  for i := 0 to 15 do a[i] := i * 4 + 2;\n  writeln(a[7])\nend.\n",
	cse:       true,
	want:      []int32{30},
	cseDefect: "a[i] := i * 4 + c stores to the wrong address",
}

// defectProbe counts what probeDefects saw.
type defectProbe struct{ programs, refused, wrong int }

// probeDefects compiles with CSE, and runs, wrongCodeProbe and every
// program the workload kept off CSE for a known defect, and notes how
// many the compiler refuses or gets wrong, so that the exclusion shows
// on every run. It runs after the timed pass and feeds no metric.
func probeDefects(rep *report, c *http.Client, url string, progs []program) defectProbe {
	probes := []program{wrongCodeProbe}
	for _, p := range progs {
		if p.cseDefect != "" {
			p.cse = true
			probes = append(probes, p)
		}
	}
	var res defectProbe
	seen := map[string]bool{}
	var symptoms []string // the first symptom of each defect
	for _, p := range probes {
		res.programs++
		symptom := ""
		status, data, _, err := post(c, url+"/v1/compile", compileBody(p, true))
		var resp server.CompileResponse
		if err != nil || status != http.StatusOK || json.Unmarshal(data, &resp) != nil || resp.Failure != nil {
			res.refused++
			symptom = fmt.Sprintf("%s refused (status %d, err %v)", p.name, status, err)
			if resp.Failure != nil {
				symptom += ": " + resp.Failure.Message
			}
		} else if out, _, err := runDeck(resp.Deck); err != nil || !equalOutput(out, p.want) {
			res.wrong++
			symptom = fmt.Sprintf("%s printed %v (err %v), twin says %v", p.name, out, err, p.want)
		}
		if symptom != "" && !seen[p.cseDefect] {
			seen[p.cseDefect] = true
			symptoms = append(symptoms, fmt.Sprintf("defect %q: %s", p.cseDefect, symptom))
		}
	}
	rep.note("known compiler defects under CSE, kept out of the timed pass: of %d probe compiles with CSE, %d refused, %d wrong output",
		res.programs, res.refused, res.wrong)
	for _, s := range symptoms {
		rep.note("  %s", s)
	}
	return res
}
