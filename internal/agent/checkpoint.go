package agent

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"macroplace/internal/atomicio"
)

const (
	// checkpointMagic identifies agent checkpoint files.
	checkpointMagic = "MPAGENT2"
	// checkpointMagicV1 identifies the previous format, which also
	// stored each BatchNorm's running mean and variance after the
	// weights. No evaluation reads them; Load checks and skips them.
	checkpointMagicV1 = "MPAGENT1"
)

// Save serialises the agent's configuration and weights so a
// pre-trained agent can be reused across runs — the paper's workflow
// pre-trains once and searches many times.
func (a *Agent) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(checkpointMagic); err != nil {
		return fmt.Errorf("agent: %w", err)
	}
	cfg := []int64{int64(a.Cfg.Zeta), int64(a.Cfg.Channels), int64(a.Cfg.ResBlocks), int64(a.Cfg.MaxSteps), a.Cfg.Seed}
	for _, v := range cfg {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("agent: %w", err)
		}
	}
	writeSlice := func(s []float32) error {
		if err := binary.Write(bw, binary.LittleEndian, int64(len(s))); err != nil {
			return err
		}
		return binary.Write(bw, binary.LittleEndian, s)
	}
	for _, p := range a.params {
		if err := writeSlice(p.W); err != nil {
			return fmt.Errorf("agent: %s: %w", p.Name, err)
		}
	}
	return bw.Flush()
}

// Load reads a checkpoint written by Save, or an MPAGENT1 checkpoint,
// and returns a fresh agent.
func Load(r io.Reader) (*Agent, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(checkpointMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("agent: %w", err)
	}
	v1 := string(magic) == checkpointMagicV1
	if !v1 && string(magic) != checkpointMagic {
		return nil, fmt.Errorf("agent: not an agent checkpoint (magic %q)", magic)
	}
	var cfg [5]int64
	for i := range cfg {
		if err := binary.Read(br, binary.LittleEndian, &cfg[i]); err != nil {
			return nil, fmt.Errorf("agent: truncated checkpoint header: %w", err)
		}
	}
	// A corrupt or truncated header decodes into arbitrary dimensions;
	// bound them before New allocates zeta²-sized tensors from garbage.
	if err := validateShape(cfg); err != nil {
		return nil, err
	}
	a := New(Config{
		Zeta: int(cfg[0]), Channels: int(cfg[1]), ResBlocks: int(cfg[2]),
		MaxSteps: int(cfg[3]), Seed: cfg[4],
	})
	readInto := func(dst []float32, what string) error {
		var n int64
		if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
			return fmt.Errorf("agent: %s: truncated checkpoint: %w", what, err)
		}
		if int(n) != len(dst) {
			return fmt.Errorf("agent: %s has %d values, want %d (architecture mismatch)", what, n, len(dst))
		}
		if err := binary.Read(br, binary.LittleEndian, dst); err != nil {
			return fmt.Errorf("agent: %s: truncated checkpoint: %w", what, err)
		}
		return nil
	}
	for _, p := range a.params {
		if err := readInto(p.W, p.Name); err != nil {
			return nil, err
		}
	}
	if v1 {
		for i, c := range a.v1RunningStatLens() {
			skip := make([]float32, c)
			if err := readInto(skip, fmt.Sprintf("bn%d.mean", i)); err != nil {
				return nil, err
			}
			if err := readInto(skip, fmt.Sprintf("bn%d.var", i)); err != nil {
				return nil, err
			}
		}
	}
	// Save writes nothing after the last slice, so any remaining byte
	// means the file is not a checkpoint this Load understands (e.g. a
	// concatenation or version skew).
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("agent: trailing data after checkpoint payload")
	}
	return a, nil
}

// v1RunningStatLens returns the channel count of each BatchNorm layer,
// in the order MPAGENT1 files stored their running statistics.
func (a *Agent) v1RunningStatLens() []int {
	out := []int{a.bn1.C}
	for _, rb := range a.tower {
		out = append(out, rb.BN1.C, rb.BN2.C)
	}
	return append(out, a.bnP.C, a.bnV.C)
}

// validateShape bounds the decoded header dimensions. The limits are
// far above any configuration this repository builds (paper shape:
// ζ=16, 128 channels, 10 blocks) but small enough that a corrupted
// header cannot demand gigabyte allocations.
func validateShape(cfg [5]int64) error {
	check := func(what string, v int64, lo, hi int64) error {
		if v < lo || v > hi {
			return fmt.Errorf("agent: checkpoint %s=%d outside [%d, %d] (corrupt header?)", what, v, lo, hi)
		}
		return nil
	}
	if err := check("zeta", cfg[0], 1, 1024); err != nil {
		return err
	}
	if err := check("channels", cfg[1], 1, 8192); err != nil {
		return err
	}
	if err := check("resblocks", cfg[2], 0, 1024); err != nil {
		return err
	}
	return check("maxsteps", cfg[3], 1, 1<<20)
}

// SaveFile writes a checkpoint to path atomically: a crash mid-write
// leaves any previous checkpoint at path intact (see atomicio).
func (a *Agent) SaveFile(path string) error {
	return atomicio.WriteFile(path, a.Save)
}

// LoadFile reads a checkpoint from path.
func LoadFile(path string) (*Agent, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("agent: %w", err)
	}
	defer f.Close()
	return Load(f)
}
