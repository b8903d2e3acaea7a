package agent

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"macroplace/internal/rng"
)

// v1Fixture is an MPAGENT1 checkpoint of testAgent() written by the
// format's own Save after three Forward calls, so its BatchNorm running
// statistics are not at their initial values.
const v1Fixture = "testdata/v1.ckpt"

func readV1Fixture(t *testing.T) []byte {
	t.Helper()
	data, err := os.ReadFile(v1Fixture)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte(checkpointMagicV1)) {
		t.Fatalf("%s does not start with %q", v1Fixture, checkpointMagicV1)
	}
	return data
}

// TestLoadV1Checkpoint: an MPAGENT1 file loads to exactly the weights
// it was saved from, evaluates bit-identically to them, and saves back
// in the current format.
func TestLoadV1Checkpoint(t *testing.T) {
	loaded, err := Load(bytes.NewReader(readV1Fixture(t)))
	if err != nil {
		t.Fatal(err)
	}
	want := testAgent()
	if loaded.Cfg != want.Cfg {
		t.Fatalf("config = %+v, want %+v", loaded.Cfg, want.Cfg)
	}
	for i, p := range want.Params() {
		got := loaded.Params()[i].W
		for j := range p.W {
			if math.Float32bits(got[j]) != math.Float32bits(p.W[j]) {
				t.Fatalf("%s[%d] = %v, want %v", p.Name, j, got[j], p.W[j])
			}
		}
	}
	r := rng.New(42)
	for step := 0; step < 4; step++ {
		sp, sa := randState(r, 36, 4)
		g, w := loaded.EvalState(sp, sa, step), want.EvalState(sp, sa, step)
		if math.Float32bits(g.Value) != math.Float32bits(w.Value) {
			t.Fatalf("step %d: value %v, want %v", step, g.Value, w.Value)
		}
		for i := range w.Probs {
			if math.Float32bits(g.Probs[i]) != math.Float32bits(w.Probs[i]) {
				t.Fatalf("step %d: probs[%d] %v, want %v", step, i, g.Probs[i], w.Probs[i])
			}
		}
	}
	var buf bytes.Buffer
	if err := loaded.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte(checkpointMagic)) {
		t.Fatalf("re-saved checkpoint starts with %q, want %q", buf.Bytes()[:len(checkpointMagic)], checkpointMagic)
	}
}

// TestLoadRejectsEveryTruncation cuts a valid checkpoint, in the
// current and in the MPAGENT1 format, at every 64-byte boundary and
// asserts Load returns an error — never a panic, never a silently
// zero-weight agent.
func TestLoadRejectsEveryTruncation(t *testing.T) {
	a := testAgent()
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for _, data := range [][]byte{buf.Bytes(), readV1Fixture(t)} {
		for cut := 0; cut < len(data); cut += 64 {
			if _, err := Load(bytes.NewReader(data[:cut])); err == nil {
				t.Fatalf("%q: truncation at %d/%d bytes loaded without error", data[:8], cut, len(data))
			}
		}
		if _, err := Load(bytes.NewReader(data)); err != nil {
			t.Fatalf("%q: full checkpoint failed to load: %v", data[:8], err)
		}
	}
}

func TestLoadRejectsTrailingData(t *testing.T) {
	a := testAgent()
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for _, data := range [][]byte{buf.Bytes(), readV1Fixture(t)} {
		data = append(data[:len(data):len(data)], 0)
		if _, err := Load(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "trailing") {
			t.Errorf("%q: trailing byte should be rejected, got %v", data[:8], err)
		}
	}
}

func TestLoadRejectsCorruptHeaderDimensions(t *testing.T) {
	// Magic followed by an absurd zeta must fail validation instead of
	// attempting a multi-gigabyte allocation.
	var buf bytes.Buffer
	buf.WriteString(checkpointMagic)
	for _, v := range []int64{1 << 40, 8, 1, 4, 0} {
		binary.Write(&buf, binary.LittleEndian, v)
	}
	if _, err := Load(&buf); err == nil || !strings.Contains(err.Error(), "zeta") {
		t.Errorf("corrupt zeta should be rejected, got %v", err)
	}
}

// TestSaveFileAtomicReplacement overwrites an existing checkpoint and
// verifies no temporary debris is left next to it.
func TestSaveFileAtomicReplacement(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "agent.ckpt")
	a := testAgent()
	if err := a.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if err := a.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err != nil {
		t.Fatalf("re-saved checkpoint does not load: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory has %d entries, want just the checkpoint", len(entries))
	}
}
