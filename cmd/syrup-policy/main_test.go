package main

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"syrup/internal/ebpf"
	"syrup/internal/policy"
)

// TestRunProfileAnnotates: disasm -profile executes the policy, the
// annotated disassembly reflects the synthetic run count, and it
// re-assembles to the policy's stream and maps.
func TestRunProfileAnnotates(t *testing.T) {
	src, err := policy.Source(policy.NameRoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	runProfile(&b, "round_robin", src, nil, 500)
	out := b.String()
	if !strings.Contains(out, "round_robin: 500 runs") {
		t.Fatalf("missing run count header:\n%s", out)
	}
	if !strings.Contains(out, "100.0%") {
		t.Fatalf("no instruction annotated as hottest:\n%s", out)
	}
	if strings.Contains(out, "runs faulted") {
		t.Fatalf("synthetic packets faulted the policy:\n%s", out)
	}
	want, err := ebpf.Assemble(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ebpf.Assemble(out, nil)
	if err != nil {
		t.Fatalf("annotated output does not assemble: %v\n%s", err, out)
	}
	if !reflect.DeepEqual(got.Insns, want.Insns) || !reflect.DeepEqual(got.Maps, want.Maps) {
		t.Fatalf("annotated output assembles to another program:\n%s\nwant:\n%s", got.Text(), want.Text())
	}
}

// TestRunProfileDeterministic: the same source and run count produce
// byte-identical annotated output, header included (the synthetic mix and
// the counters draw nothing from the wall clock or global state).
func TestRunProfileDeterministic(t *testing.T) {
	src, err := policy.Source(policy.NameRoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	var a, b strings.Builder
	runProfile(&a, "round_robin", src, nil, 200)
	runProfile(&b, "round_robin", src, nil, 200)
	if a.String() != b.String() {
		t.Fatalf("profile output not deterministic:\n--- a\n%s--- b\n%s", a.String(), b.String())
	}
}

// threeMaps references three maps in the reverse of their declaration
// order.
const threeMaps = `.map a array 4 8 1
.map b array 4 8 1
.map c array 4 8 1
  r1 = map(c)
  r1 = map(b)
  r1 = map(a)
  r0 = 0
  exit
`

// TestBuildIsReproducible: build -o writes the same bytes on every build,
// with each map reference an fd numbered in declaration order.
func TestBuildIsReproducible(t *testing.T) {
	dir := t.TempDir()
	var first []byte
	for i := range 6 {
		out := filepath.Join(dir, "p.bin")
		runBuild("three", threeMaps, nil, out)
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = b
		} else if !bytes.Equal(b, first) {
			t.Fatalf("build %d wrote different bytes:\n%x\n%x", i, b, first)
		}
	}
	var fds []uint32
	for i := range 3 { // the three LDDW pairs lead
		fds = append(fds, binary.LittleEndian.Uint32(first[16*i+4:]))
	}
	if fds[0] != fds[1]+1 || fds[1] != fds[2]+1 {
		t.Fatalf("map fds c, b, a = %v, want descending by one", fds)
	}
}
