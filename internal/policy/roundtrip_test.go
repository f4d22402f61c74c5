package policy

import (
	"reflect"
	"testing"

	"syrup/internal/ebpf"
)

// Every shipped policy must survive assemble -> Text -> assemble with a
// bit-identical instruction stream and map set: the disassembler half of
// syrup-policy disasm is only trustworthy if it round-trips the real
// sources, not just synthetic streams.
func TestPolicySourcesRoundTrip(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			src := MustSource(name)
			f, err := ebpf.Assemble(src, nil)
			if err != nil {
				t.Fatalf("assemble %s: %v", name, err)
			}
			text := f.Text()
			g, err := ebpf.Assemble(text, nil)
			if err != nil {
				t.Fatalf("re-assemble %s: %v\nrendered:\n%s", name, err, text)
			}
			if !reflect.DeepEqual(f.Insns, g.Insns) {
				t.Fatalf("%s: instruction stream changed across round trip\nrendered:\n%s\ngot:\n%s", name, text, g.Text())
			}
			if !reflect.DeepEqual(f.Maps, g.Maps) {
				t.Fatalf("%s: map declarations changed: %+v vs %+v", name, f.Maps, g.Maps)
			}
		})
	}
}

// The loaded form must round-trip too: TextSource renders the loaded
// (map-resolved) stream, and re-assembling it yields the same bytecode.
func TestPolicyTextSourceRoundTrip(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			defines := map[string]int64(nil)
			if name == NameSITA {
				defines = SITADefines(4)
			}
			p, _, err := loadBuiltin(name, defines)
			if err != nil {
				t.Fatalf("load %s: %v", name, err)
			}
			text := p.TextSource()
			g, err := ebpf.Assemble(text, nil)
			if err != nil {
				t.Fatalf("re-assemble %s: %v\nrendered:\n%s", name, err, text)
			}
			// The re-loaded program must verify and produce the same stream.
			q, err := load(g)
			if err != nil {
				t.Fatalf("re-load %s: %v\nrendered:\n%s", name, err, text)
			}
			if again := q.TextSource(); again != text {
				t.Fatalf("%s: loaded stream changed across round trip\nwant:\n%s\ngot:\n%s", name, text, again)
			}
		})
	}
}
