package policy

import (
	"fmt"
	"io/fs"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"syrup/internal/ebpf"
)

// FuzzAssemble feeds the .syr assembler arbitrary text, seeded with every
// shipped policy file. Whatever the input, Assemble must not panic. A
// file it accepts and whose jumps all land on a line re-assembles from
// Text() to the identical instructions, map declarations and map
// references; one that also instantiates and verifies re-assembles from
// the loaded program's TextSource() to the same loaded stream. One the
// verifier refuses is refused on an instruction line of the source, and
// its Text() at the same slot for the same reason. Plain `go test`
// replays the seeds, an unsafe one among them; `make fuzz` runs it on.
func FuzzAssemble(f *testing.F) {
	files, err := fs.Glob(sources, "policies/*")
	if err != nil || len(files) == 0 {
		f.Fatalf("policy files: %v %v", files, err)
	}
	for _, name := range files {
		src, err := fs.ReadFile(sources, name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Add("; reads the packet unchecked\n.const OFF 0\nr2 = *(u64 *)(r1 + OFF)\n\nread:\n  r0 = *(u64 *)(r2 + 0) // no bounds check\n  exit\n")
	f.Fuzz(func(t *testing.T, src string) {
		a, err := ebpf.Assemble(src, nil)
		if err != nil || !renderable(a.Insns) {
			return
		}
		text := a.Text()
		b, err := ebpf.Assemble(text, nil)
		if err != nil {
			t.Fatalf("Text() does not re-assemble: %v\nsource:\n%s\nrendered:\n%s", err, src, text)
		}
		if !reflect.DeepEqual(a.Insns, b.Insns) || !reflect.DeepEqual(a.Maps, b.Maps) {
			t.Fatalf("Text() round trip changed the file\nsource:\n%s\nrendered:\n%s\ngot:\n%s", src, text, b.Text())
		}

		v, err := ebpf.Verify("fuzz", a)
		if err != nil {
			m := rejection.FindStringSubmatch(err.Error())
			if m == nil && len(a.Insns) > ebpf.MaxInsns {
				return // refused before the verifier ran
			}
			if m == nil {
				t.Fatalf("%v: the refusal names no line and slot\nsource:\n%s", err, src)
			}
			if n, _ := strconv.Atoi(m[1]); !instructionLine(src, n) {
				t.Fatalf("%v: line %d holds no instruction\nsource:\n%s", err, n, src)
			}
			_, rerr := ebpf.Verify("fuzz", b)
			if r := rejection.FindStringSubmatch(fmt.Sprint(rerr)); r == nil || r[2] != m[2] || r[3] != m[3] {
				t.Fatalf("source refused with %v, Text() with %v\nsource:\n%s\nrendered:\n%s", err, rerr, src, text)
			}
			return
		}
		p, _, err := v.Bind(nil)
		if err != nil {
			return
		}
		text = p.TextSource()
		c, err := ebpf.Assemble(text, nil)
		if err != nil {
			t.Fatalf("TextSource() does not re-assemble: %v\nrendered:\n%s", err, text)
		}
		q, err := load(c)
		if err != nil {
			t.Fatalf("TextSource() does not re-load: %v\nrendered:\n%s", err, text)
		}
		if again := q.TextSource(); again != text {
			t.Fatalf("TextSource() round trip changed the stream\nwant:\n%s\ngot:\n%s", text, again)
		}
	})
}

// load verifies f's program and binds it to fresh maps.
func load(f *ebpf.AsmFile) (*ebpf.Program, error) {
	v, err := ebpf.Verify("fuzz", f)
	if err != nil {
		return nil, err
	}
	p, _, err := v.Bind(nil)
	return p, err
}

// rejection is a verifier refusal: its source line, slot and reason.
var rejection = regexp.MustCompile(`^ebpf: fuzz: verifier: line (\d+): insn (\d+): (.*)$`)

// instructionLine reports whether line n of src holds an instruction: not
// blank or a comment, a declaration or a label.
func instructionLine(src string, n int) bool {
	lines := strings.Split(src, "\n")
	if n < 1 || n > len(lines) {
		return false
	}
	s := lines[n-1]
	for _, c := range []string{";", "#", "//"} {
		s, _, _ = strings.Cut(s, c)
	}
	s = strings.TrimSpace(s)
	return s != "" && s[0] != '.' && !strings.HasSuffix(s, ":")
}

// renderable reports whether no jump lands on the high half of an LDDW
// pair, the one slot the renderer cannot label.
func renderable(insns []ebpf.Instruction) bool {
	for i, ins := range insns {
		cls := ins.Class()
		if cls != ebpf.ClassJMP && cls != ebpf.ClassJMP32 {
			continue
		}
		if op := ins.Op & 0xf0; op == ebpf.JmpExit || op == ebpf.JmpCall {
			continue
		}
		if tgt := i + 1 + int(ins.Off); tgt > 0 && tgt <= len(insns) && insns[tgt-1].IsLDDW() {
			return false
		}
	}
	return true
}
