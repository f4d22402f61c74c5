package main

import (
	"strings"
	"testing"

	"syrup/internal/policy"
)

// TestRunProfileAnnotates: disasm -profile executes the policy and the
// annotated disassembly reflects the synthetic run count.
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
