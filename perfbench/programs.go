package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// program is one seeded Pascal compilation unit with the writeln output
// its Go twin computed for it. The twin never looks at the compiler: it
// evaluates the same parameters with Go arithmetic, so a deck that
// disagrees with it is a wrong translation, not a changed expectation.
type program struct {
	name      string
	source    string
	cse       bool
	want      []int32
	cseDefect string // the family's cseDefect
}

// family renders one program shape. Loop trip counts depend only on the
// program's index, so the workload's code size and instruction count
// stay nearly the same from seed to seed; the seed picks the data and
// constants, which makes every program's source distinct.
type family struct {
	name string
	gen  func(r *rand.Rand, idx int) (src string, want []int32)
	// cseDefect, when set, names the known compiler defect that makes
	// CSE compiles of this family fail. Its programs are then compiled
	// without CSE in the workloads, and probeDefects compiles them with
	// CSE after every timed pass and reports what the defect does.
	cseDefect string
}

var families = []family{
	{"sort", genSort, ""},
	{"recur", genRecursion, ""},
	{"gcd", genGCD, ""},
	{"sieve", genSieve, ""},
	{"sets", genSets, ""},
	{"narrow", genNarrow, ""},
	{"calls", genCalls, ""},
	{"cases", genCases, ""},
	{"long", genLong, "a basic block of about 15 array-element products is refused for want of an even/odd register pair"},
}

// makePrograms builds n programs for one workload. stream separates the
// workloads' program sets under one seed; program i of a stream is a
// pure function of (seed, stream, i). CSE is on for a seeded half of
// the programs of every family without a cseDefect.
func makePrograms(seed int64, stream string, n int) []program {
	ps := make([]program, n)
	for i := range ps {
		f := families[i%len(families)]
		r := rand.New(rand.NewSource(mix(seed, stream, i)))
		src, want := f.gen(r, i)
		ps[i] = program{
			name:      fmt.Sprintf("%s-%s%d.pas", stream, f.name, i),
			source:    src,
			cse:       r.Intn(2) == 1 && f.cseDefect == "",
			want:      want,
			cseDefect: f.cseDefect,
		}
	}
	return ps
}

// mix derives one program's generator seed.
func mix(seed int64, stream string, i int) int64 {
	h := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i)*0xBF58476D1CE4E5B9
	for _, c := range stream {
		h = (h ^ uint64(c)) * 0x100000001B3
	}
	return int64(h >> 1)
}

// longStatements sizes the long family's straight-line block.
const longStatements = 180

// tag is the first value every program writes: unique per index, seeded
// in its low digits.
func tag(r *rand.Rand, idx int) int32 { return int32(idx*1000 + r.Intn(1000)) }

func genSort(r *rand.Rand, idx int) (string, []int32) {
	k := 10 + idx%5
	t := tag(r, idx)
	vals := make([]int, k)
	var b strings.Builder
	fmt.Fprintf(&b, "program sort%d;\nvar a: array[0..%d] of integer;\n    i, j, t, tag: integer;\nbegin\n  tag := %d;\n", idx, k-1, t)
	for i := range vals {
		vals[i] = r.Intn(1999) - 999
		fmt.Fprintf(&b, "  a[%d] := %d;\n", i, vals[i])
	}
	fmt.Fprintf(&b, `  for i := 0 to %d do
    for j := 0 to %d - i do
      if a[j] > a[j + 1] then
      begin
        t := a[j]; a[j] := a[j + 1]; a[j + 1] := t
      end;
  writeln(tag);
  for i := 0 to %d do writeln(a[i])
end.
`, k-2, k-2, k-1)
	sort.Ints(vals)
	want := []int32{t}
	for _, v := range vals {
		want = append(want, int32(v))
	}
	return b.String(), want
}

func genRecursion(r *rand.Rand, idx int) (string, []int32) {
	t := tag(r, idx)
	n1 := 9 + idx%4
	n2 := 20 + idx%30
	base, exp := 2+r.Intn(8), 5+idx%8
	off := r.Intn(500)
	src := fmt.Sprintf(`program recur%d;
var tag: integer;

function fib(n: integer): integer;
begin
  if n < 2 then fib := n
  else fib := fib(n - 1) + fib(n - 2)
end;

function sumto(n: integer): integer;
begin
  if n = 0 then sumto := 0
  else sumto := n + sumto(n - 1)
end;

function power(b, e: integer): integer;
begin
  if e = 0 then power := 1
  else power := (b * power(b, e - 1)) mod 10007
end;

begin
  tag := %d;
  writeln(tag);
  writeln(fib(%d) + %d);
  writeln(sumto(%d));
  writeln(power(%d, %d))
end.
`, idx, t, n1, off, n2, base, exp)
	fib := func(n int) int {
		a, b := 0, 1
		for i := 0; i < n; i++ {
			a, b = b, a+b
		}
		return a
	}
	p := 1
	for i := 0; i < exp; i++ {
		p = base * p % 10007
	}
	return src, []int32{t, int32(fib(n1) + off), int32(n2 * (n2 + 1) / 2), int32(p)}
}

func genGCD(r *rand.Rand, idx int) (string, []int32) {
	t := tag(r, idx)
	var b strings.Builder
	fmt.Fprintf(&b, `program gcd%d;
var tag: integer;

function gcd(a, b: integer): integer;
var x, y, t: integer;
begin
  x := a; y := b;
  while y <> 0 do
  begin
    t := x mod y; x := y; y := t
  end;
  gcd := x
end;

function rgcd(a, b: integer): integer;
begin
  if b = 0 then rgcd := a
  else rgcd := rgcd(b, a mod b)
end;

begin
  tag := %d;
  writeln(tag);
`, idx, t)
	want := []int32{t}
	gcd := func(x, y int) int {
		for y != 0 {
			x, y = y, x%y
		}
		return x
	}
	for i := 0; i < 6; i++ {
		g := 1 + r.Intn(60)
		x, y := g*(1+r.Intn(400)), g*(1+r.Intn(400))
		fn := "gcd"
		if i%2 == 1 {
			fn = "rgcd"
		}
		fmt.Fprintf(&b, "  writeln(%s(%d, %d));\n", fn, x, y)
		want = append(want, int32(gcd(x, y)))
	}
	b.WriteString("  writeln(tag mod 97)\nend.\n")
	want = append(want, t%97)
	return b.String(), want
}

func genSieve(r *rand.Rand, idx int) (string, []int32) {
	t := tag(r, idx)
	limit := 150 + 50*(idx%4)
	mult := 3 + r.Intn(50)
	src := fmt.Sprintf(`program sieve%d;
var f: array[0..300] of 0..1;
    i, j, count, last, tag: integer;
begin
  tag := %d;
  for i := 2 to %d do f[i] := 1;
  i := 2;
  while i * i <= %d do
  begin
    if f[i] = 1 then
    begin
      j := i * i;
      while j <= %d do
      begin
        f[j] := 0; j := j + i
      end
    end;
    i := i + 1
  end;
  count := 0; last := 0;
  for i := 2 to %d do
    if f[i] = 1 then
    begin
      count := count + 1; last := i
    end;
  writeln(tag, count, last);
  writeln(count * %d + last)
end.
`, idx, t, limit, limit, limit, limit, mult)
	comp := make([]bool, limit+1)
	count, last := 0, 0
	for i := 2; i <= limit; i++ {
		if comp[i] {
			continue
		}
		count, last = count+1, i
		for j := i * i; j <= limit; j += i {
			comp[j] = true
		}
	}
	return src, []int32{t, int32(count), int32(last), int32(count*mult + last)}
}

func genSets(r *rand.Rand, idx int) (string, []int32) {
	t := tag(r, idx)
	a, b := 1+r.Intn(62), r.Intn(64)
	c, d := 1+r.Intn(62), r.Intn(64)
	src := fmt.Sprintf(`program sets%d;
var s: set of 0..63;
    i, n, tag: integer;
begin
  tag := %d;
  for i := 0 to 15 do s := s + [(i * %d + %d) mod 64];
  for i := 0 to 7 do s := s - [(i * %d + %d) mod 64];
  n := 0;
  for i := 0 to 63 do
    if i in s then n := n + 1;
  writeln(tag, n);
  for i := 0 to 63 do
    if i in s then writeln(i)
end.
`, idx, t, a, b, c, d)
	var s uint64
	for i := 0; i < 16; i++ {
		s |= 1 << uint((i*a+b)%64)
	}
	for i := 0; i < 8; i++ {
		s &^= 1 << uint((i*c+d)%64)
	}
	want := []int32{t, 0}
	for i := 0; i < 64; i++ {
		if s&(1<<uint(i)) != 0 {
			want[1]++
			want = append(want, int32(i))
		}
	}
	return src, want
}

// genNarrow exercises halfword and byte storage (subrange variables).
func genNarrow(r *rand.Rand, idx int) (string, []int32) {
	t := tag(r, idx)
	h1, h2 := r.Intn(30000), r.Intn(40001)-20000
	b1, b2 := r.Intn(256), r.Intn(256)
	rounds := 12 + idx%10
	src := fmt.Sprintf(`program narrow%d;
var h1, h2: -30000..30000;
    b1, b2: 0..255;
    i, acc, tag: integer;
begin
  tag := %d;
  h1 := %d; h2 := %d; b1 := %d; b2 := %d; acc := 0;
  for i := 1 to %d do
  begin
    h1 := (h1 * 3 + b1) mod 30000;
    b1 := (b1 + b2 + i) mod 256;
    h2 := h2 - b1;
    acc := acc + h1 - h2 + b1
  end;
  writeln(tag);
  writeln(h1, h2, b1, acc)
end.
`, idx, t, h1, h2, b1, b2, rounds)
	acc := 0
	for i := 1; i <= rounds; i++ {
		h1 = (h1*3 + b1) % 30000
		b1 = (b1 + b2 + i) % 256
		h2 -= b1
		acc += h1 - h2 + b1
	}
	return src, []int32{t, int32(h1), int32(h2), int32(b1), int32(acc)}
}

// genCalls chains procedures and functions through several call levels
// (the front end has no nested procedure declarations, so depth comes
// from calls, not from lexical nesting).
func genCalls(r *rand.Rand, idx int) (string, []int32) {
	t := tag(r, idx)
	g0, s, m := r.Intn(1000), r.Intn(20), 2+r.Intn(9)
	rounds := 8 + idx%12
	src := fmt.Sprintf(`program calls%d;
var g, i, tag: integer;

procedure bump(k: integer);
begin
  g := g + k
end;

procedure twice(k: integer);
begin
  bump(k); bump(k * 2)
end;

procedure thrice(k: integer);
begin
  twice(k); twice(k + 1); bump(-k)
end;

function combine(a, b: integer): integer;
begin
  combine := a * %d + b
end;

begin
  tag := %d;
  g := %d;
  for i := 1 to %d do thrice(i + %d);
  writeln(tag, g);
  writeln(combine(g mod 1000, %d))
end.
`, idx, m, t, g0, rounds, s, rounds)
	g := g0
	for i := 1; i <= rounds; i++ {
		k := i + s
		g += k + 2*k + (k + 1) + 2*(k+1) - k
	}
	return src, []int32{t, int32(g), int32((g%1000)*m + rounds)}
}

func genCases(r *rand.Rand, idx int) (string, []int32) {
	t := tag(r, idx)
	a, b := 1+r.Intn(97), r.Intn(100)
	rounds := 20 + idx%25
	src := fmt.Sprintf(`program cases%d;
var i, acc, tally, tag: integer;
begin
  tag := %d;
  acc := 1; tally := 0;
  for i := 1 to %d do
    case (i * %d + %d) mod 5 of
      0: acc := acc + i;
      1: acc := acc + 2 * i;
      2: acc := acc * 3 mod 10007;
      3: begin acc := acc div 2; tally := tally + 1 end;
      4: acc := acc + %d
    end;
  writeln(tag, acc, tally)
end.
`, idx, t, rounds, a, b, a)
	acc, tally := 1, 0
	for i := 1; i <= rounds; i++ {
		switch (i*a + b) % 5 {
		case 0:
			acc += i
		case 1:
			acc += 2 * i
		case 2:
			acc = acc * 3 % 10007
		case 3:
			acc /= 2
			tally++
		case 4:
			acc += a
		}
	}
	return src, []int32{t, int32(acc), int32(tally)}
}

// genLong is straight-line code long enough (over 4 KB) that branches
// past it need the long form, so label relaxation has work to do. Every
// ten statements a seeded choice bounds the sum, either with a
// conditional (which ends the basic block) or with a mod (which does
// not). Its cseDefect keeps it off CSE; with CSE, a multiplier of 4
// would also meet wrongCodeProbe's defect.
func genLong(r *rand.Rand, idx int) (string, []int32) {
	t := tag(r, idx)
	c1, c2 := 1+r.Intn(50), r.Intn(100)
	var b strings.Builder
	fmt.Fprintf(&b, `program long%d;
var a: array[0..15] of integer;
    i, s, tag: integer;
begin
  tag := %d;
  for i := 0 to 15 do a[i] := i * %d + %d;
  s := 0;
`, idx, t, c1, c2)
	var a [16]int
	for i := range a {
		a[i] = i*c1 + c2
	}
	s := 0
	for j := 0; j < longStatements; j++ {
		k, m := r.Intn(16), 1+r.Intn(9)
		fmt.Fprintf(&b, "  s := s + a[%d] * %d;\n", k, m)
		s += a[k] * m
		if j%10 != 9 {
			continue
		}
		if r.Intn(2) == 0 {
			b.WriteString("  if s > 50000 then s := s - 50000;\n")
			if s > 50000 {
				s -= 50000
			}
		} else {
			k := 50000 + r.Intn(50000)
			fmt.Fprintf(&b, "  s := s mod %d;\n", k)
			s %= k
		}
	}
	b.WriteString(`  for i := 0 to 15 do
    if a[i] > s mod 1000 then s := s + i else s := s - a[i];
  writeln(tag, s)
end.
`)
	for i := 0; i < 16; i++ {
		if a[i] > s%1000 {
			s += i
		} else {
			s -= a[i]
		}
	}
	return b.String(), []int32{t, int32(s)}
}
