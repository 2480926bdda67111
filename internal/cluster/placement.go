package cluster

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"sort"

	"spbtree/internal/metric"
	"spbtree/internal/sfc"
)

// Placement is the cluster's shard-to-node assignment: which node serves
// each shard, and where each node listens. It is versioned so stale copies
// are detectable — every handoff bumps Version and flips exactly one
// shard's owner, atomically from any observer's point of view (routers swap
// the whole Placement pointer; see DESIGN.md §12.4 for the state machine).
type Placement struct {
	// Version increases monotonically with every ownership change.
	Version uint64
	// Shards is the forest's shard count (fixed at bootstrap; resharding is
	// out of scope — rebalancing moves whole shards instead).
	Shards int
	// Owners maps shard index → node name.
	Owners map[int]string
	// Nodes maps node name → listen address.
	Nodes map[string]string
}

// Clone deep-copies p, so a mutated copy can be swapped in without racing
// readers of the original.
func (p *Placement) Clone() *Placement {
	np := &Placement{Version: p.Version, Shards: p.Shards,
		Owners: make(map[int]string, len(p.Owners)),
		Nodes:  make(map[string]string, len(p.Nodes))}
	for s, n := range p.Owners {
		np.Owners[s] = n
	}
	for n, a := range p.Nodes {
		np.Nodes[n] = a
	}
	return np
}

// ShardsOf lists the shards node owns, ascending.
func (p *Placement) ShardsOf(node string) []int {
	var out []int
	for s, n := range p.Owners {
		if n == node {
			out = append(out, s)
		}
	}
	sort.Ints(out)
	return out
}

// ByOwner groups all shards by owning node, each group ascending — the
// scatter plan: one RPC per node, carrying its group.
func (p *Placement) ByOwner() map[string][]int {
	out := make(map[string][]int)
	for s, n := range p.Owners {
		out[n] = append(out[n], s)
	}
	for _, shards := range out {
		sort.Ints(shards)
	}
	return out
}

// Validate checks internal consistency: every shard 0..Shards-1 has an
// owner, and every owner has an address.
func (p *Placement) Validate() error {
	if p.Shards < 1 {
		return fmt.Errorf("cluster: placement has %d shards", p.Shards)
	}
	for s := 0; s < p.Shards; s++ {
		owner, ok := p.Owners[s]
		if !ok {
			return fmt.Errorf("cluster: shard %d has no owner", s)
		}
		if _, ok := p.Nodes[owner]; !ok {
			return fmt.Errorf("cluster: shard %d owned by unknown node %q", s, owner)
		}
	}
	return nil
}

// ringVnodes is how many points each node contributes to the consistent-
// hash ring. 64 keeps the expected per-node shard imbalance a few percent
// at typical node counts while the ring stays tiny.
const ringVnodes = 64

// fnv64 hashes s with FNV-1a — stable across processes and Go versions
// (unlike maphash), which placement determinism requires — then avalanches
// the result. Raw FNV-1a is unusable as a ring hash: for short keys that
// differ only near the end ("shard-0".."shard-9"), the final multiply
// carries the difference only ~40 bits upward, leaving the high bits — and
// therefore the ring position — nearly identical, which clumps every shard
// onto one arc. The splitmix64 finalizer spreads each input bit across the
// whole word.
func fnv64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// RingOwners assigns shards to nodes by consistent hashing: each node
// projects ringVnodes points onto a 64-bit ring (hash of "name#i"), and
// shard s belongs to the first point clockwise of hash("shard-<s>"). The
// assignment is deterministic in the node set alone, and adding or removing
// one node moves only the shards adjacent to its points — the property that
// keeps rebalancing incremental (DESIGN.md §12.3).
func RingOwners(nodes []string, shards int) map[int]string {
	if len(nodes) == 0 || shards < 1 {
		return nil
	}
	type point struct {
		pos  uint64
		node string
	}
	ring := make([]point, 0, len(nodes)*ringVnodes)
	for _, n := range nodes {
		for i := 0; i < ringVnodes; i++ {
			ring = append(ring, point{fnv64(fmt.Sprintf("%s#%d", n, i)), n})
		}
	}
	sort.Slice(ring, func(i, j int) bool {
		if ring[i].pos != ring[j].pos {
			return ring[i].pos < ring[j].pos
		}
		return ring[i].node < ring[j].node // deterministic on (vanishingly rare) collisions
	})
	owners := make(map[int]string, shards)
	for s := 0; s < shards; s++ {
		pos := fnv64(fmt.Sprintf("shard-%d", s))
		i := sort.Search(len(ring), func(i int) bool { return ring[i].pos >= pos })
		if i == len(ring) {
			i = 0 // wrap: first point clockwise past the ring's end
		}
		owners[s] = ring[i].node
	}
	return owners
}

// NodeDef names one cluster member in the config file.
type NodeDef struct {
	Name string `json:"name"`
	Addr string `json:"addr"`
}

// Config is the cluster description shared by every process (cmd/spbcluster
// init writes it; nodes, routers and the rebalance tool read it). The
// object-space fields mirror cmd/spbserve's index config so one file
// describes both how to talk to the data and where it lives.
type Config struct {
	// Type selects the object space: "vectors", "words", or "dna".
	Type string `json:"type"`
	// Dim is the vector dimensionality (vectors type).
	Dim int `json:"dim,omitempty"`
	// MaxLen is the maximum string length (words type; 0 means 64).
	MaxLen int `json:"maxlen,omitempty"`
	// Shards is the forest's partition count.
	Shards int `json:"shards"`
	// Curve is "hilbert" or "zorder" ("zorder" enables similarity joins).
	Curve string `json:"curve"`
	// Nodes lists the members; shard ownership at bootstrap is
	// RingOwners(names, Shards).
	Nodes []NodeDef `json:"nodes"`
}

// LoadConfig reads and validates a cluster config file.
func LoadConfig(path string) (*Config, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c Config
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("cluster: parse %s: %w", path, err)
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: %s: %w", path, err)
	}
	return &c, nil
}

// Validate checks the config for internal consistency.
func (c *Config) Validate() error {
	switch c.Type {
	case "vectors", "words", "dna":
	default:
		return fmt.Errorf("unknown type %q (want vectors, words or dna)", c.Type)
	}
	if c.Type == "vectors" && c.Dim < 1 {
		return fmt.Errorf("vectors type needs dim >= 1")
	}
	if c.Shards < 1 {
		return fmt.Errorf("shards must be >= 1")
	}
	switch c.Curve {
	case "hilbert", "zorder", "":
	default:
		return fmt.Errorf("unknown curve %q (want hilbert or zorder)", c.Curve)
	}
	if len(c.Nodes) == 0 {
		return fmt.Errorf("at least one node required")
	}
	seen := make(map[string]bool, len(c.Nodes))
	for _, n := range c.Nodes {
		if n.Name == "" || n.Addr == "" {
			return fmt.Errorf("node needs both name and addr")
		}
		if seen[n.Name] {
			return fmt.Errorf("duplicate node name %q", n.Name)
		}
		seen[n.Name] = true
	}
	return nil
}

// Space resolves the config's metric space: the distance function and
// codec every node, router and bootstrap of this cluster must share.
func (c *Config) Space() (metric.DistanceFunc, metric.Codec, error) {
	dist, codec, _, err := metric.Space{Type: c.Type, Dim: c.Dim, MaxLen: c.MaxLen}.Resolve()
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: %w", err)
	}
	return dist, codec, nil
}

// CurveKind resolves the config's SFC family (Hilbert unless "zorder").
func (c *Config) CurveKind() sfc.Kind {
	if c.Curve == "zorder" {
		return sfc.ZOrder
	}
	return sfc.Hilbert
}

// NodeNames lists the member names in config order.
func (c *Config) NodeNames() []string {
	out := make([]string, len(c.Nodes))
	for i, n := range c.Nodes {
		out[i] = n.Name
	}
	return out
}

// Placement derives the bootstrap placement: ring-assigned owners at
// version 1.
func (c *Config) Placement() *Placement {
	p := &Placement{Version: 1, Shards: c.Shards,
		Owners: RingOwners(c.NodeNames(), c.Shards),
		Nodes:  make(map[string]string, len(c.Nodes))}
	for _, n := range c.Nodes {
		p.Nodes[n.Name] = n.Addr
	}
	return p
}
