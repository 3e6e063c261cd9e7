package persist

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// The shard manifest is the one file in a sharded store's parent directory
// that is not owned by an individual shard: it records how many shards exist
// and how keys are placed across them. Reopen must route every key exactly
// as the writer did — a different shard count or placement would silently
// re-home keys (lookups miss data that sits in another shard's PMA), so the
// manifest is written once when the store is created and verified on every
// OpenSharded. It is small and rewritten atomically (temp file + rename,
// like snapshots); a reader treats any parse or validation failure as a hard
// error rather than guessing a topology.

// Placement kind names recorded in the manifest.
const (
	PlacementStraw2 = "straw2"
	PlacementRange  = "range"
)

// manifestName is the manifest file name inside the parent directory.
const manifestName = "MANIFEST.json"

// ShardManifest describes a sharded store's topology.
type ShardManifest struct {
	// Version is the manifest schema version (currently 1).
	Version int `json:"version"`
	// Shards is the number of shard directories (shard-000 ... ).
	Shards int `json:"shards"`
	// Placement is PlacementStraw2 or PlacementRange.
	Placement string `json:"placement"`
	// Weights are the straw2 shard weights (len == Shards); nil for range.
	Weights []float64 `json:"weights,omitempty"`
	// Splits are the range split points (len == Shards-1); nil for straw2.
	Splits []int64 `json:"splits,omitempty"`
}

// validate checks internal consistency.
func (m ShardManifest) validate() error {
	if m.Version != 1 {
		return fmt.Errorf("persist: unsupported manifest version %d", m.Version)
	}
	if m.Shards < 1 {
		return fmt.Errorf("persist: manifest shard count %d", m.Shards)
	}
	switch m.Placement {
	case PlacementStraw2:
		if len(m.Weights) != m.Shards {
			return fmt.Errorf("persist: manifest has %d weights for %d shards", len(m.Weights), m.Shards)
		}
		if len(m.Splits) != 0 {
			return fmt.Errorf("persist: straw2 manifest carries range splits")
		}
	case PlacementRange:
		if len(m.Splits) != m.Shards-1 {
			return fmt.Errorf("persist: manifest has %d splits for %d shards", len(m.Splits), m.Shards)
		}
		if len(m.Weights) != 0 {
			return fmt.Errorf("persist: range manifest carries straw2 weights")
		}
	default:
		return fmt.Errorf("persist: unknown placement %q in manifest", m.Placement)
	}
	return nil
}

// Equal reports whether two manifests describe the same topology.
func (m ShardManifest) Equal(o ShardManifest) bool {
	if m.Version != o.Version || m.Shards != o.Shards || m.Placement != o.Placement ||
		len(m.Weights) != len(o.Weights) || len(m.Splits) != len(o.Splits) {
		return false
	}
	for i := range m.Weights {
		if m.Weights[i] != o.Weights[i] {
			return false
		}
	}
	for i := range m.Splits {
		if m.Splits[i] != o.Splits[i] {
			return false
		}
	}
	return true
}

func (m ShardManifest) String() string {
	switch m.Placement {
	case PlacementStraw2:
		return fmt.Sprintf("%d shards, straw2 weights %v", m.Shards, m.Weights)
	case PlacementRange:
		return fmt.Sprintf("%d shards, range splits %v", m.Shards, m.Splits)
	default:
		return fmt.Sprintf("%d shards, placement %q", m.Shards, m.Placement)
	}
}

// SaveManifest durably writes the manifest into dir (temp file, fsync,
// rename, directory sync — a crash leaves either the old manifest or the
// new one, never a torn file).
func SaveManifest(dir string, m ShardManifest) error {
	if err := m.validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = writeDurable(filepath.Join(dir, manifestName), func(f *os.File) error {
		_, err := f.Write(data)
		return err
	})
	return err
}

// LoadManifest reads the manifest from dir. ok is false when none exists;
// a manifest that exists but does not parse or validate is an error — the
// topology is unknown and opening shards anyway could lose data.
func LoadManifest(dir string) (m ShardManifest, ok bool, err error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return ShardManifest{}, false, nil
	}
	if err != nil {
		return ShardManifest{}, false, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return ShardManifest{}, false, fmt.Errorf("persist: corrupt shard manifest in %s: %w", dir, err)
	}
	if err := m.validate(); err != nil {
		return ShardManifest{}, false, err
	}
	return m, true, nil
}
