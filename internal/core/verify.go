package core

import (
	"errors"
	"fmt"
	"strings"

	"spbtree/internal/page"
)

// Corruption is one finding of VerifyIntegrity.
type Corruption struct {
	// Component locates the finding: "index-page", "data-page",
	// "bptree-structure", "raf-record" or "counters".
	Component string
	// Page is the corrupt page when the finding is page-granular (HasPage).
	Page    page.ID
	HasPage bool
	// Offset is the RAF byte offset for "raf-record" findings.
	Offset uint64
	// Detail describes the failure.
	Detail string
}

// String renders the finding for logs and spbtool verify.
func (c Corruption) String() string {
	switch {
	case c.Component == "raf-record":
		return fmt.Sprintf("%s @%d: %s", c.Component, c.Offset, c.Detail)
	case c.HasPage:
		return fmt.Sprintf("%s %d: %s", c.Component, c.Page, c.Detail)
	default:
		return fmt.Sprintf("%s: %s", c.Component, c.Detail)
	}
}

// IntegrityError aggregates every corruption VerifyIntegrity found; it
// unwraps to page.ErrCorrupt so errors.Is works uniformly.
type IntegrityError struct {
	Corruptions []Corruption
}

// Error implements error.
func (e *IntegrityError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "core: integrity check failed: %d finding(s)", len(e.Corruptions))
	for i, c := range e.Corruptions {
		if i == 4 && len(e.Corruptions) > 5 {
			fmt.Fprintf(&b, "; … %d more", len(e.Corruptions)-i)
			break
		}
		b.WriteString("; ")
		b.WriteString(c.String())
	}
	return b.String()
}

// Is makes errors.Is(err, page.ErrCorrupt) match.
func (e *IntegrityError) Is(target error) bool { return target == page.ErrCorrupt }

// VerifyIntegrity audits the whole index and reports every corruption it
// can find rather than stopping at the first: it re-reads and
// checksum-validates every B+-tree and RAF page below the buffer caches,
// re-checks the B+-tree's structural and MBB invariants, decodes every live
// RAF record reachable from the leaf level, and cross-checks the object
// count (on a durable tree, against the live set merged with the write
// buffer). It returns nil when the index is healthy and an *IntegrityError
// listing the findings (with corrupt page IDs pinpointed) otherwise.
//
// It reads every page, so cost is proportional to the index size; caches
// are flushed first so resident copies cannot mask on-disk damage. It holds
// the write lock throughout: queries and mutators wait for the audit.
func (t *Tree) VerifyIntegrity() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var cs []Corruption
	add := func(component string, err error) *Corruption {
		c := Corruption{Component: component, Detail: err.Error()}
		var ce *page.CorruptError
		if errors.As(err, &ce) {
			c.Page = ce.ID
			c.HasPage = true
		}
		cs = append(cs, c)
		return &cs[len(cs)-1]
	}

	if err := t.raf.Flush(); err != nil {
		add("data-page", err)
	}
	t.idxCache.Flush()
	t.dataCache.Flush()

	// Every physical page of both stores, validated below the caches.
	var buf [page.Size]byte
	for id := 0; id < t.idxCache.NumPages(); id++ {
		if err := t.idxCache.Read(page.ID(id), buf[:]); err != nil {
			add("index-page", err)
		}
	}
	for id := 0; id < t.raf.PagesUsed(); id++ {
		if err := t.dataCache.Read(page.ID(id), buf[:]); err != nil {
			add("data-page", err)
		}
	}

	// Structural and MBB invariants of the B+-tree.
	if err := t.bpt.CheckInvariants(); err != nil {
		add("bptree-structure", err)
	}

	// Every live RAF slot, decoded via the leaf chain. Individual record
	// failures are reported and skipped so one bad page does not hide the
	// rest.
	entries, shadowed := 0, 0
	c := t.bpt.SeekFirst()
	for ; c.Valid(); c.Next() {
		entries++
		obj, err := t.raf.Read(c.Val())
		if err != nil {
			add("raf-record", err).Offset = c.Val()
		} else if t.deltaShadowed(obj.ID()) {
			shadowed++
		}
	}
	// On a durable tree the live set is base entries minus those shadowed by
	// the write buffer, plus buffered inserts awaiting compaction. The
	// counter may exceed it by up to one per shadowed base record: a
	// cross-key upsert cannot see the base object it replaces (no ID index
	// over the base), so it counts as an insert until compaction recomputes
	// the count from the live set. Each such drifted ID still shadows its
	// base record, so [live, live+shadowed] is the exact legal window — an
	// empty delta collapses it to equality.
	live := entries - shadowed
	if t.wbuf != nil {
		live += len(t.wbuf.entries)
	}
	if err := c.Err(); err != nil {
		add("bptree-structure", fmt.Errorf("leaf chain: %w", err))
	} else if t.count < live || t.count > live+shadowed {
		cs = append(cs, Corruption{
			Component: "counters",
			Detail: fmt.Sprintf("tree count %d outside the live-set window [%d, %d] (%d in leaf chain, %d shadowed, %d buffered inserts)",
				t.count, live, live+shadowed, entries, shadowed, live-entries+shadowed),
		})
	}

	if len(cs) == 0 {
		return nil
	}
	return &IntegrityError{Corruptions: cs}
}
