package main

import (
	"bufio"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"spbtree/internal/core"
	"spbtree/internal/metric"
	"spbtree/internal/page"
	"spbtree/internal/sfc"
)

const (
	indexFile  = core.IndexPagesFile
	dataFile   = core.DataPagesFile
	metaFile   = core.MetaFile
	configFile = "config.json"
)

// kind bundles a dataset type's metric, codec and parsers.
type kind struct {
	dist  metric.DistanceFunc
	codec metric.Codec
	// parse turns an input line into an object.
	parse func(id uint64, line string) (metric.Object, error)
	// describe renders an object for query output.
	describe func(o metric.Object) string
}

// kindFor resolves the space persisted next to the index (config.json), so
// query/stats reconstruct the same metric without re-specifying every
// parameter, and adds the type's renderer.
func kindFor(cfg metric.Space) (kind, error) {
	dist, codec, parse, err := cfg.Resolve()
	if err != nil {
		return kind{}, err
	}
	k := kind{dist: dist, codec: codec, parse: parse}
	switch cfg.Type {
	case "words":
		k.describe = func(o metric.Object) string { return o.(*metric.Str).S }
	case "vectors":
		k.describe = func(o metric.Object) string {
			v := o.(*metric.Vector)
			parts := make([]string, len(v.Coords))
			for i, c := range v.Coords {
				parts[i] = strconv.FormatFloat(c, 'g', 4, 64)
			}
			return strings.Join(parts, ",")
		}
	case "dna":
		k.describe = func(o metric.Object) string { return o.(*metric.Seq).S }
	case "signatures":
		k.describe = func(o metric.Object) string {
			return hex.EncodeToString(o.(*metric.BitString).Bits)
		}
	}
	return k, nil
}

func cmdBuild(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("build", flag.ContinueOnError)
	dir := fs.String("dir", "", "index directory (created)")
	typ := fs.String("type", "", "dataset type: words|vectors|dna|signatures")
	in := fs.String("in", "", "input file, one object per line")
	dim := fs.Int("dim", 0, "vector dimensionality")
	pivots := fs.Int("pivots", 0, "number of pivots (0 = default 5)")
	curve := fs.String("curve", "hilbert", "SFC: hilbert|zorder")
	maxObjects := fs.Int("max", 0, "cap the number of indexed lines (0 = all)")
	durable := fs.Bool("durable", false, "build a durable index (WAL + generations) that accepts crash-safe inserts/deletes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" || *typ == "" || *in == "" {
		return fmt.Errorf("build needs -dir, -type and -in")
	}

	lines, err := readLines(*in, *maxObjects)
	if err != nil {
		return err
	}
	if len(lines) == 0 {
		return fmt.Errorf("no input lines in %s", *in)
	}
	cfg := metric.Space{Type: *typ, Dim: *dim}
	if *typ == "signatures" {
		cfg.Width = len(lines[0]) / 2
	}
	if *typ == "words" {
		maxLen := 0
		for _, l := range lines {
			if len(l) > maxLen {
				maxLen = len(l)
			}
		}
		cfg.MaxLen = maxLen
	}
	k, err := kindFor(cfg)
	if err != nil {
		return err
	}
	objs := make([]metric.Object, 0, len(lines))
	for i, line := range lines {
		o, err := k.parse(uint64(i), line)
		if err != nil {
			return fmt.Errorf("line %d: %w", i+1, err)
		}
		objs = append(objs, o)
	}

	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	kindCurve := sfc.Hilbert
	if *curve == "zorder" {
		kindCurve = sfc.ZOrder
	}
	start := time.Now()
	var tree *core.Tree
	if *durable {
		// CreateDurable owns the generation layout and its page stores; the
		// WAL is created empty next to generation 1.
		tree, err = core.CreateDurable(*dir, objs, core.Options{
			Distance:  k.dist,
			Codec:     k.codec,
			NumPivots: *pivots,
			Curve:     kindCurve,
		}, core.DurableOptions{})
		if err != nil {
			return err
		}
		if err := tree.Close(); err != nil {
			return err
		}
	} else {
		idx, err := page.NewFileStore(filepath.Join(*dir, indexFile))
		if err != nil {
			return err
		}
		data, err := page.NewFileStore(filepath.Join(*dir, dataFile))
		if err != nil {
			idx.Close()
			return err
		}
		tree, err = core.Build(objs, core.Options{
			Distance:   k.dist,
			Codec:      k.codec,
			NumPivots:  *pivots,
			Curve:      kindCurve,
			IndexStore: idx,
			DataStore:  data,
		})
		if err != nil {
			idx.Close()
			data.Close()
			return err
		}
		if err := tree.SaveAtomic(*dir); err != nil {
			tree.Close()
			return err
		}
		if err := tree.Close(); err != nil {
			return err
		}
	}
	cj, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(*dir, configFile), cj, 0o644); err != nil {
		return err
	}
	layout := "static"
	if *durable {
		layout = "durable"
	}
	fmt.Fprintf(out, "indexed %d objects in %v: %d pivots, %s curve, %s layout, %.1f KB\n",
		tree.Len(), time.Since(start).Round(time.Millisecond),
		len(tree.Pivots()), tree.CurveKind(), layout, float64(tree.StorageBytes())/1024)
	return nil
}

// dirKind reads the directory's config.json and resolves its metric.
func dirKind(dir string) (kind, error) {
	cj, err := os.ReadFile(filepath.Join(dir, configFile))
	if err != nil {
		return kind{}, err
	}
	var cfg metric.Space
	if err := json.Unmarshal(cj, &cfg); err != nil {
		return kind{}, fmt.Errorf("parse %s: %w", configFile, err)
	}
	return kindFor(cfg)
}

// openTree reopens a persisted index directory, validating the meta footer
// and arming page checksums (core.Load). A durable directory (CURRENT file
// present) reopens through core.OpenDurable, replaying the WAL tail so
// queries see every acknowledged write.
func openTree(dir string) (*core.Tree, kind, func(), error) {
	k, err := dirKind(dir)
	if err != nil {
		return nil, kind{}, nil, err
	}
	lopts := core.LoadOptions{Distance: k.dist, Codec: k.codec}
	var tree *core.Tree
	if _, serr := os.Stat(filepath.Join(dir, core.CurrentFile)); serr == nil {
		tree, err = core.OpenDurable(dir, lopts, core.DurableOptions{})
	} else {
		tree, err = core.Load(dir, lopts)
	}
	if err != nil {
		return nil, kind{}, nil, err
	}
	return tree, k, func() { tree.Close() }, nil
}

func cmdVerify(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	dir := fs.String("dir", "", "index directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("verify needs -dir")
	}
	tree, _, closeAll, err := openTree(*dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return err
		}
		return fmt.Errorf("%w\nthe index cannot be opened; run \"spbtool repair -dir %s\" to rebuild it", err, *dir)
	}
	defer closeAll()
	start := time.Now()
	err = tree.VerifyIntegrity()
	if err == nil {
		fmt.Fprintf(out, "ok: %d objects, %.1f KB verified in %v\n",
			tree.Len(), float64(tree.StorageBytes())/1024, time.Since(start).Round(time.Millisecond))
		return nil
	}
	var ie *core.IntegrityError
	if errors.As(err, &ie) {
		// One corrupt page makes every record on it unreadable; collapse
		// the per-record repeats into one line with a count so the page
		// list stays scannable.
		repeats := 0
		var last core.Corruption
		flush := func() {
			if repeats > 1 {
				fmt.Fprintf(out, "corrupt: … %d more records on the same corrupt page\n", repeats-1)
			}
			repeats = 0
		}
		for _, c := range ie.Corruptions {
			if repeats > 0 && c.Component == last.Component && c.HasPage && last.HasPage && c.Page == last.Page {
				repeats++
				last = c
				continue
			}
			flush()
			fmt.Fprintf(out, "corrupt: %s\n", c)
			repeats, last = 1, c
		}
		flush()
		return fmt.Errorf("%d corruption finding(s); run \"spbtool repair -dir %s\" to rebuild from surviving objects", len(ie.Corruptions), *dir)
	}
	return err
}

func cmdRepair(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("repair", flag.ContinueOnError)
	dir := fs.String("dir", "", "index directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("repair needs -dir")
	}
	k, err := dirKind(*dir)
	if err != nil {
		return err
	}
	start := time.Now()
	rep, err := core.Repair(*dir, core.LoadOptions{Distance: k.dist, Codec: k.codec})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "repaired in %v: %d objects salvaged, %d index entries dropped\n",
		time.Since(start).Round(time.Millisecond), rep.Salvaged, rep.Dropped)
	return nil
}

func cmdQuery(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	dir := fs.String("dir", "", "index directory")
	q := fs.String("q", "", "query object (same format as input lines)")
	r := fs.Float64("r", -1, "range query radius")
	k := fs.Int("k", 0, "kNN query k")
	showStats := fs.Bool("stats", false, "print the query's per-stage QueryStats breakdown")
	debugAddr := fs.String("debugaddr", "", "serve /debug/vars and /debug/pprof on this address and wait after the query")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" || *q == "" {
		return fmt.Errorf("query needs -dir and -q")
	}
	if (*r < 0) == (*k <= 0) {
		return fmt.Errorf("query needs exactly one of -r or -k")
	}
	tree, kd, closeAll, err := openTree(*dir)
	if err != nil {
		return err
	}
	defer closeAll()
	var ln net.Listener
	if *debugAddr != "" {
		tree.PublishExpvar("spbtree")
		if ln, err = startDebugServer(*debugAddr); err != nil {
			return err
		}
	}
	qobj, err := kd.parse(1<<63, *q)
	if err != nil {
		return fmt.Errorf("parse query: %w", err)
	}

	tree.ResetStats()
	start := time.Now()
	req := core.Query{Op: core.OpKNN, Q: qobj, K: *k, Timed: true}
	if *r >= 0 {
		req = core.Query{Op: core.OpRange, Q: qobj, Radius: *r, Timed: true}
	}
	results, qs, err := tree.Query(context.Background(), req)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	st := tree.TakeStats()
	for _, res := range results {
		fmt.Fprintf(out, "%-12d d=%-10.4g %s\n", res.Object.ID(), res.Dist, kd.describe(res.Object))
	}
	fmt.Fprintf(out, "-- %d results in %v (PA=%d, compdists=%d)\n",
		len(results), elapsed.Round(time.Microsecond), st.PageAccesses, st.DistanceComputations)
	if *showStats {
		printQueryStats(out, qs)
	}
	if ln != nil {
		holdDebugServer(out, ln)
	}
	return nil
}

func cmdStats(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	dir := fs.String("dir", "", "index directory")
	probe := fs.Bool("probe", false, "run a cold 10-NN probe query (first pivot as query object) and print its per-stage stats")
	debugAddr := fs.String("debugaddr", "", "serve /debug/vars and /debug/pprof on this address and wait")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("stats needs -dir")
	}
	tree, kd, closeAll, err := openTree(*dir)
	if err != nil {
		return err
	}
	defer closeAll()
	fmt.Fprintf(out, "objects:    %d\n", tree.Len())
	fmt.Fprintf(out, "metric:     %s (d+ = %g)\n", kd.dist.Name(), kd.dist.MaxDistance())
	fmt.Fprintf(out, "pivots:     %d\n", len(tree.Pivots()))
	fmt.Fprintf(out, "curve:      %s, %d bits/dim, delta %g\n", tree.CurveKind(), tree.Bits(), tree.Delta())
	fmt.Fprintf(out, "storage:    %.1f KB\n", float64(tree.StorageBytes())/1024)
	if *probe && tree.Len() > 0 {
		tree.ResetStats()
		_, qs, err := tree.Query(context.Background(), core.Query{Op: core.OpKNN, Q: tree.Pivots()[0], K: 10, Timed: true})
		if err != nil {
			return err
		}
		printQueryStats(out, qs)
	}
	if *debugAddr != "" {
		tree.PublishExpvar("spbtree")
		ln, err := startDebugServer(*debugAddr)
		if err != nil {
			return err
		}
		holdDebugServer(out, ln)
	}
	return nil
}

func readLines(path string, max int) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		lines = append(lines, line)
		if max > 0 && len(lines) >= max {
			break
		}
	}
	return lines, sc.Err()
}
