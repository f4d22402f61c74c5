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
// its Text() at the same slot for the same reason; one whose map
// declaration breaks a spec rule is refused on that .map line, with no
// slot, and its Text() for the same reason. A file Verify accepts binds
// on an empty host. Plain `go test` replays the seeds, an unsafe one
// among them; `make fuzz` runs it on.
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
			n, _ := strconv.Atoi(m[2])
			switch line := sourceLine(src, n); {
			case m[1] != "" && m[3] != "" && line != "" && line[0] != '.' && !strings.HasSuffix(line, ":"):
			case m[1] == "" && m[3] == "" && strings.HasPrefix(line, ".map"):
			default:
				t.Fatalf("%v: line %d is %q\nsource:\n%s", err, n, line, src)
			}
			_, rerr := ebpf.Verify("fuzz", b)
			if r := rejection.FindStringSubmatch(fmt.Sprint(rerr)); r == nil || r[1] != m[1] || r[3] != m[3] || r[5] != m[5] {
				t.Fatalf("source refused with %v, Text() with %v\nsource:\n%s\nrendered:\n%s", err, rerr, src, text)
			}
			return
		}
		p, _, err := v.Bind(nil)
		if err != nil {
			t.Fatalf("Verify accepts what Bind(nil) refuses: %v\nsource:\n%s", err, src)
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

// rejection is a refusal of Verify: the verifier's names its source line
// and slot, a map declaration's its .map line alone; then the reason.
var rejection = regexp.MustCompile(`^ebpf: fuzz: (verifier: )?line (\d+): (insn (\d+): )?(.*)$`)

// sourceLine is line n of src without its comment and outer blanks, or ""
// if src has no line n.
func sourceLine(src string, n int) string {
	lines := strings.Split(src, "\n")
	if n < 1 || n > len(lines) {
		return ""
	}
	s := lines[n-1]
	for _, c := range []string{";", "#", "//"} {
		s, _, _ = strings.Cut(s, c)
	}
	return strings.TrimSpace(s)
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
