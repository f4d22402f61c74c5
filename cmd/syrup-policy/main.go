// Command syrup-policy is the policy author's front door to the load
// pipeline: assemble, verify, and inspect .syr policy files the same way
// syrupd will at deploy time.
//
// Usage:
//
//	syrup-policy build   [-D NAME=VALUE ...] [-o out.bin] <file.syr | builtin:NAME>
//	syrup-policy disasm  [-D NAME=VALUE ...] [-profile N] <file.syr | builtin:NAME>
//	syrup-policy list
//	syrup-policy scaffold [name]
//
// build compiles and verifies, printing a summary (and with -o the
// assembled bytecode in the classic 8-byte wire format). disasm prints
// the loaded stream — the one the verifier admitted and the one that
// executes — rendered back to assemblable .syr source; the output
// re-assembles to bit-identical bytecode (gated by the round-trip tests).
// With -profile N it instead executes N deterministic synthetic packets
// and prints the disassembly annotated with each instruction's hit count.
// list prints the built-in policies. scaffold prints a commented starter
// policy to build from.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"syrup/internal/ebpf"
	"syrup/internal/policy"
)

type defineFlags map[string]int64

func (d defineFlags) String() string { return "" }
func (d defineFlags) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("define %q not in NAME=VALUE form", s)
	}
	v, err := strconv.ParseInt(val, 0, 64)
	if err != nil {
		return err
	}
	d[name] = v
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: syrup-policy <command> [flags] <file.syr | builtin:NAME>

commands:
  build     assemble and verify; print a summary (-o writes bytecode)
  disasm    print the loaded stream as re-assemblable .syr source
  list      list the built-in policies
  scaffold  print a starter policy template

flags (build/disasm):
  -D NAME=VALUE   deploy-time define (repeatable)
  -o file         write the loaded bytecode in wire format (build)
  -profile N      run N synthetic packets and print hotness-annotated disasm (disasm)`)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "syrup-policy:", err)
	os.Exit(1)
}

// source resolves a file path or builtin:NAME argument.
func source(arg string) (name, src string) {
	if builtin, ok := strings.CutPrefix(arg, "builtin:"); ok {
		s, err := policy.Source(builtin)
		if err != nil {
			fatal(err)
		}
		return builtin, s
	}
	b, err := os.ReadFile(arg)
	if err != nil {
		fatal(err)
	}
	return arg, string(b)
}

// load runs the full deploy-time pipeline on one source: assemble, verify,
// and bind to fresh maps.
func load(name, src string, defines map[string]int64) (*ebpf.AsmFile, *ebpf.Verified, *ebpf.Program) {
	f, err := ebpf.Assemble(src, defines)
	if err != nil {
		fatal(fmt.Errorf("assemble: %w", err))
	}
	v, err := ebpf.Verify(name, f)
	if err != nil {
		fatal(err)
	}
	prog, _, err := v.Bind(nil)
	if err != nil {
		fatal(err)
	}
	return f, v, prog
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]

	fs := flag.NewFlagSet("syrup-policy "+cmd, flag.ExitOnError)
	defines := defineFlags{}
	fs.Var(defines, "D", "deploy-time define NAME=VALUE (repeatable)")
	out := fs.String("o", "", "write the loaded bytecode in wire format to `file` (build)")
	profile := fs.Int("profile", 0, "disasm: run `n` deterministic synthetic packets and print the hotness-annotated disassembly (0 = plain disasm)")

	switch cmd {
	case "build", "disasm":
		fs.Parse(args)
		if fs.NArg() != 1 {
			usage()
		}
		name, src := source(fs.Arg(0))
		switch {
		case cmd == "build":
			runBuild(name, src, defines, *out)
		case *profile > 0:
			runProfile(os.Stdout, name, src, defines, *profile)
		default:
			runDisasm(name, src, defines)
		}
	case "list":
		runList()
	case "scaffold":
		fs.Parse(args)
		name := "my_policy"
		if fs.NArg() > 0 {
			name = fs.Arg(0)
		}
		fmt.Print(scaffold(name))
	default:
		usage()
	}
}

func runBuild(name, src string, defines map[string]int64, out string) {
	f, v, prog := load(name, src, defines)
	fmt.Printf("%s: %d source lines, %d instructions, %d map(s) — verified\n",
		name, v.SourceLines(), prog.Len(), len(f.Maps))
	for _, spec := range f.Maps {
		fmt.Printf("  map %-16s %-10s key=%d value=%d entries=%d\n",
			spec.Name, spec.Type, spec.KeySize, spec.ValueSize, spec.MaxEntries)
	}
	if out != "" {
		insns, _, _, err := f.Instantiate(nil)
		if err != nil {
			fatal(err)
		}
		// Write the stream as assembled (pre-load): map references are
		// fds of the declared maps, numbered in declaration order, so the
		// bytes are loadable elsewhere and the same on every build.
		if err := os.WriteFile(out, ebpf.Encode(insns), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("  wrote %d bytes to %s\n", 8*len(insns), out)
	}
}

func runDisasm(name, src string, defines map[string]int64) {
	_, _, prog := load(name, src, defines)
	fmt.Print(prog.TextSource())
}

// runList prints every built-in policy with its size, flagging any that no
// longer assembles.
func runList() {
	for _, n := range policy.Names() {
		f, err := ebpf.Assemble(policy.MustSource(n), nil)
		if err != nil {
			fmt.Printf("%-14s BROKEN: %v\n", n, err)
			continue
		}
		fmt.Printf("%-14s %3d LoC %4d insns  ok\n", n, f.SourceLines, len(f.Insns))
	}
}

// runProfile loads the policy, drives it with a deterministic synthetic
// packet mix (GET/SCAN/PUT cycling over flows, queues, and users — the
// same header layout the scaffold documents), and prints the
// hotness-annotated disassembly.
func runProfile(w io.Writer, name, src string, defines map[string]int64, runs int) {
	_, _, prog := load(name, src, defines)
	types := []uint64{policy.ReqGET, policy.ReqSCAN, policy.ReqPUT}
	faults := 0
	for i := 0; i < runs; i++ {
		keyHash := uint32(i) * 2654435761
		payload := policy.EncodeHeader(types[i%len(types)], uint32(i%4), keyHash, uint64(i))
		wire := make([]byte, 8+len(payload)) // 8-byte UDP header, then the app header
		copy(wire[8:], payload)
		ctx := &ebpf.Ctx{Packet: wire, Hash: keyHash, Port: 9000, Queue: uint32(i % 4)}
		if _, _, err := prog.Run(ctx, nil); err != nil {
			faults++
		}
	}
	fmt.Fprint(w, prog.AnnotatedDisasm())
	if faults > 0 {
		fmt.Fprintf(w, "; %d of %d synthetic runs faulted\n", faults, runs)
	}
}

func scaffold(name string) string {
	return fmt.Sprintf(`; %s: schedule() policy for syrupd.
;
; The context at r1 holds two pointers:
;   *(u64 *)(r1 + 0)   pkt_start (first byte of the UDP header)
;   *(u64 *)(r1 + 8)   pkt_end   (one past the last byte)
; Return an executor index in r0, or PASS/DROP.
;
; Deploy-time parameters arrive as defines and override .const defaults.
.const NUM_EXECUTORS 6
.map %s_state array 4 8 64    ; name type key_size value_size entries

  r6 = *(u64 *)(r1 + 0)        ; pkt_start
  r7 = *(u64 *)(r1 + 8)        ; pkt_end
  r2 = r6
  r2 += 16                     ; udp header + request type
  if r2 > r7 goto pass         ; every packet read needs a bounds proof
  r8 = *(u64 *)(r6 + 8)        ; request type (see policy.EncodeHeader)

  *(u32 *)(r10 - 4) = 0        ; map key on the stack
  r1 = map(%s_state)
  r2 = r10
  r2 += -4
  call map_lookup_elem
  if r0 == 0 goto pass         ; array lookups can still miss when out of range
  r3 = *(u64 *)(r0 + 0)

  r0 = r8
  r0 %%= NUM_EXECUTORS
  exit
pass:
  r0 = PASS
  exit
`, name, name, name)
}
