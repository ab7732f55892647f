package tables_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"cogg/internal/tables"
	"cogg/specs"
)

// TestPackBoundedAllocs gates the comb packer's allocation count: Pack
// builds a handful of working buffers (the per-row column/action pools,
// the sort order, the occupancy bitmap and row masks, and the three
// output arrays) whose number does not depend on the state count.
// Growth of the shared pools adds a logarithmic number of doublings, so
// a small constant bound holds even for the full 800-state grammar; a
// regression to per-row or per-entry allocation blows straight past it.
func TestPackBoundedAllocs(t *testing.T) {
	cg := buildFrom(t, "amdahl470.cogg", specs.Amdahl470)
	const limit = 64
	allocs := testing.AllocsPerRun(3, func() {
		tables.Pack(cg.Table)
	})
	if allocs > limit {
		t.Errorf("Pack allocates %.0f times per run, want <= %d", allocs, limit)
	}
}

// TestDecodeBoundedAllocs gates the module decoder's allocation count.
// Decode sizes every array once from its count, so allocations scale
// with the number of productions, templates and operands, not with the
// number of table entries read (about 1,800 for this module). A
// regression to per-entry reads (85k allocs/op when every u16 went
// through io.ReadFull) or to append growth blows straight past it.
func TestDecodeBoundedAllocs(t *testing.T) {
	cg := buildFrom(t, "amdahl470.cogg", specs.Amdahl470)
	var buf bytes.Buffer
	if _, err := cg.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	const limit = 2500
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := tables.DecodeBytes(data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > limit {
		t.Errorf("Decode allocates %.0f times per run, want <= %d", allocs, limit)
	}
}

// TestDecodeHostileCountAllocatesLittle feeds streams of a few dozen
// bytes whose counts claim far more entries than the bytes left could
// hold. Decode must refuse each before sizing anything from the count,
// so the bytes it allocates stay near the input size.
func TestDecodeHostileCountAllocatesLittle(t *testing.T) {
	u32 := func(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
	head := func() []byte {
		b := []byte(tables.FormatVersion())
		b = u32(b, 1)      // grammar name length
		b = append(b, 'g') // grammar name
		return u32(b, 0)   // lambda
	}
	noSyms := func(b []byte) []byte { return u32(b, 0) }
	cases := []struct {
		name string
		data []byte
	}{
		{"symbols claim 2^20", u32(head(), 1<<20)},
		{"productions claim 2^20", u32(noSyms(head()), 1<<20)},
		// Packed section: state and column counts, then a column map
		// claiming 2^24 entries.
		{"packed claims 2^24", u32(u32(u32(u32(noSyms(head()), 0), 1), 1), 1<<24)},
	}
	for _, c := range cases {
		data := append(c.data, make([]byte, 16)...) // a few entries' worth
		if _, err := tables.DecodeBytes(data); err == nil {
			t.Fatalf("%s: Decode accepted a %d-byte stream", c.name, len(data))
		} else if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: error %q is not a truncation", c.name, err)
		}
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			tables.Decode(bytes.NewReader(data))
		}
		runtime.ReadMemStats(&after)
		perRun := (after.TotalAlloc - before.TotalAlloc) / runs
		if limit := uint64(2048 + 16*len(data)); perRun > limit {
			t.Errorf("%s: decoding %d bytes allocates %d bytes per run, want <= %d", c.name, len(data), perRun, limit)
		}
	}
}
