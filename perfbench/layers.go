package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"cogg/internal/asm"
	"cogg/internal/batch"
	"cogg/internal/blob"
	"cogg/internal/codegen"
	"cogg/internal/core"
	"cogg/internal/driver"
	"cogg/internal/ifopt"
	"cogg/internal/ir"
	"cogg/internal/labels"
	"cogg/internal/loader"
	"cogg/internal/pascal"
	"cogg/internal/rt370"
	"cogg/internal/server"
	"cogg/internal/shaper"
	"cogg/internal/tables"
	"cogg/specs"
)

// layerCounts are the per-layer counts that must repeat exactly when
// the same inputs pass through the layers twice.
type layerCounts struct {
	tokens, reductions, instructions, longBranches, deckBytes, listingBytes int
}

// spans collects one layer's per-unit durations.
type spans map[string][]float64

func (s spans) add(name string, d time.Duration) { s[name] = append(s[name], us(d)) }

// timed runs f and records its duration under name.
func (s spans) timed(name string, f func()) {
	t0 := time.Now()
	f()
	s.add(name, time.Since(t0))
}

// replayLayers passes the workload's distinct programs through the
// public layer functions in the daemon's order — load (table build or
// decode, plan compilation), request decode, front end, shaper, IF
// optimizer, code generation, label layout, loader, listing, response
// encode, the batch service, and the blob tier — recording a span
// around each call. The pipeline pass runs twice and its counts must
// repeat exactly; each listing must equal the daemon's verified one.
func replayLayers(rep *report, cfg config, progs []program, refs []*server.CompileResponse) error {
	const spec = "amdahl470.cogg"
	load := spans{}
	var cg *core.CodeGenerator
	for i := 0; i < 3; i++ {
		var err error
		load.timed("core.generate", func() { cg, err = core.Generate(spec, specs.Amdahl470) })
		if err != nil {
			return err
		}
	}
	var module bytes.Buffer
	if _, err := cg.Encode(&module); err != nil {
		return err
	}
	cfgGen := rt370.Config()
	var mod *tables.Module
	var gen *codegen.Generator
	for i := 0; i < 5; i++ {
		var err error
		load.timed("tables.decode", func() { mod, err = tables.Decode(bytes.NewReader(module.Bytes())) })
		if err != nil {
			return err
		}
		load.timed("codegen.new", func() { gen, err = codegen.New(mod, cfgGen) })
		if err != nil {
			return err
		}
	}
	rep.set("core.generate_ms", "ms", median(load["core.generate"])/1e3)
	rep.set("tables.module_bytes", "bytes", float64(module.Len()))
	rep.set("tables.decode_ms", "ms", median(load["tables.decode"])/1e3)
	rep.set("codegen.new_ms", "ms", median(load["codegen.new"])/1e3)
	tgt := &driver.Target{Mod: mod, Gen: gen, Machine: cfgGen.Machine}

	var counts [2]layerCounts
	var sp spans
	for pass := range counts {
		sp = spans{}
		for i, p := range progs {
			if refs[i] == nil {
				continue // already reported as a problem
			}
			if err := replayUnit(sp, &counts[pass], tgt, p, refs[i]); err != nil {
				rep.problem("%s: layer replay: %v", p.name, err)
			}
		}
	}
	if counts[0] != counts[1] {
		rep.problem("layer counts differ between two passes over the same inputs: %+v vs %+v", counts[0], counts[1])
	}
	for _, l := range []string{"pascal.parse", "shaper.shape", "ifopt.apply", "codegen.generate",
		"labels.layout", "loader.build", "asm.listing", "server.encode", "server.decode"} {
		rep.set(l+"_us", "us", median(sp[l]))
	}
	c := counts[0]
	rep.set("ir.tokens", "count", float64(c.tokens))
	rep.set("codegen.reductions", "count", float64(c.reductions))
	rep.set("codegen.instructions", "count", float64(c.instructions))
	rep.set("labels.long_branches", "count", float64(c.longBranches))
	rep.set("loader.deck_bytes", "bytes", float64(c.deckBytes))
	rep.set("asm.listing_bytes", "bytes", float64(c.listingBytes))

	if err := replayBatch(rep, tgt, progs, refs); err != nil {
		return err
	}
	return replayBlob(rep, cfg, progs, refs)
}

// replayUnit is one program through the pipeline, as the daemon's
// executePascal runs it via driver.CompileCtx and driver.Finish.
func replayUnit(sp spans, c *layerCounts, tgt *driver.Target, p program, ref *server.CompileResponse) error {
	body := compileBody(p, true)
	var req server.CompileRequest
	var err error
	sp.timed("server.decode", func() { err = json.NewDecoder(bytes.NewReader(body)).Decode(&req) })
	if err != nil {
		return err
	}
	var prog *pascal.Program
	sp.timed("pascal.parse", func() { prog, err = pascal.Parse(req.Name, req.Source) })
	if err != nil {
		return err
	}
	opt := shaper.Options{StatementRecords: true}
	var cseTime time.Duration
	if req.Options.CSE {
		opt.CSE = func(stmts []*ir.Node, alloc func(size int64) int64) ([]*ir.Node, error) {
			t0 := time.Now()
			defer func() { cseTime += time.Since(t0) }()
			return ifopt.New().Apply(stmts, alloc)
		}
	}
	var shaped *shaper.Shaped
	t0 := time.Now()
	shaped, err = shaper.Shape(prog, opt)
	sp.add("shaper.shape", time.Since(t0)-cseTime)
	if req.Options.CSE {
		sp.add("ifopt.apply", cseTime)
	}
	if err != nil {
		return err
	}
	toks := shaped.Linearize()
	var code *asm.Program
	var res *codegen.Result
	sp.timed("codegen.generate", func() {
		code, res, err = tgt.Translator().GenerateCtx(context.Background(), shaped.Name, toks)
	})
	if err != nil {
		return err
	}
	sp.timed("labels.layout", func() { err = labels.Layout(code, tgt.Machine) })
	if err != nil {
		return err
	}
	sp.timed("loader.build", func() { _, err = loader.Build(code, tgt.Machine) })
	if err != nil {
		return err
	}
	var listing string
	sp.timed("asm.listing", func() { listing = asm.Listing(code, tgt.Machine) })
	if listing != ref.Listing {
		return fmt.Errorf("replayed listing differs from the daemon's")
	}
	resp := server.CompileResponse{
		Name: req.Name, Listing: listing, Deck: ref.Deck, Tokens: len(toks),
		Reductions: res.Reductions, Instructions: code.InstructionCount(), CodeBytes: code.CodeSize,
	}
	var out bytes.Buffer
	sp.timed("server.encode", func() {
		enc := json.NewEncoder(&out)
		enc.SetEscapeHTML(false)
		err = enc.Encode(resp)
	})
	if err != nil {
		return err
	}
	raw, err := base64.StdEncoding.DecodeString(ref.Deck)
	if err != nil {
		return err
	}
	c.tokens += len(toks)
	c.reductions += res.Reductions
	c.instructions += code.InstructionCount()
	c.longBranches += labels.LongBranchCount(code)
	c.deckBytes += len(raw)
	c.listingBytes += len(listing)
	return nil
}

// replayBatch drives the batch service directly in 32-unit batches for
// about a second: its units per second, without HTTP or queueing. Each
// unit gets a fresh IF optimizer, as each daemon request does.
func replayBatch(rep *report, tgt *driver.Target, progs []program, refs []*server.CompileResponse) error {
	svc := batch.New(batch.Options{Workers: clients})
	var idx []int
	for i := range progs {
		if refs[i] != nil {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return fmt.Errorf("no verified programs to replay")
	}
	units := make([]batch.Unit, len(idx))
	done := 0
	t0 := time.Now()
	for time.Since(t0) < time.Second {
		for k, i := range idx {
			p := progs[i]
			units[k] = batch.Unit{Name: p.name, Source: p.source, Opt: shaper.Options{StatementRecords: true}}
			if p.cse {
				units[k].Opt.CSE = ifopt.New().Apply
			}
		}
		for lo := 0; lo < len(units); lo += 32 {
			hi := min(lo+32, len(units))
			for j, r := range svc.CompileBatch(tgt, units[lo:hi]) {
				if r.Err != nil || r.Compiled.Listing() != refs[idx[lo+j]].Listing {
					rep.problem("%s: batch replay disagrees with the daemon (%v)", r.Name, r.Err)
					continue
				}
				done++
			}
		}
	}
	rep.set("batch.units_per_s", "1/s", float64(done)/time.Since(t0).Seconds())
	return nil
}

// replayBlob stores every verified answer as the daemon's deck cache
// does — a put into the disk tier, then an index-sidecar upsert — and
// reads each back through a memory-over-disk tier as a hot hit.
// blob.index_update_us is the median of the last tenth of upserts, at
// the final index size.
func replayBlob(rep *report, cfg config, progs []program, refs []*server.CompileResponse) error {
	ctx := context.Background()
	dir := filepath.Join(cfg.work, "blob-replay")
	fs := blob.NewFS(dir)
	sp := spans{}
	var keys []string
	for i, p := range progs {
		if refs[i] == nil {
			continue
		}
		payload, err := json.Marshal(refs[i])
		if err != nil {
			return err
		}
		key := blob.DigestParts("perfbench/v1", p.name, p.source)
		sp.timed("blob.put", func() { err = fs.Put(ctx, key, payload) })
		if err != nil {
			return err
		}
		sp.timed("blob.index_update", func() {
			err = blob.UpdateIndex(dir, blob.IndexEntry{Name: p.name, Version: "deck/v1", Kind: "deck",
				Key: key, Content: blob.Sum(payload), Size: int64(len(payload))})
		})
		if err != nil {
			return err
		}
		keys = append(keys, key)
	}
	tiered := blob.NewTiered(blob.NewMem(0, 0), fs)
	for _, k := range keys {
		if _, err := tiered.Get(ctx, k); err != nil {
			return err
		}
		var err error
		sp.timed("blob.get", func() { _, err = tiered.Get(ctx, k) })
		if err != nil {
			return err
		}
	}
	upd := sp["blob.index_update"]
	rep.set("blob.put_us", "us", median(sp["blob.put"]))
	rep.set("blob.index_update_us", "us", median(upd[len(upd)-max(len(upd)/10, 1):]))
	rep.set("blob.get_us", "us", median(sp["blob.get"]))
	return nil
}
