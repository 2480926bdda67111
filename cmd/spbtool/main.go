// Command spbtool builds, persists and queries SPB-tree indexes from the
// command line — the downstream-user entry point complementing the library
// API. An index lives in a directory of three files: index.pages (B+-tree),
// data.pages (RAF) and tree.meta.
//
//	spbtool build -dir idx -type words  -in /usr/share/dict/words
//	spbtool build -dir idx -type vectors -dim 16 -in features.csv
//	spbtool query -dir idx -type words  -q "defoliate" -r 2
//	spbtool query -dir idx -type words  -q "defoliate" -k 10
//	spbtool explain -dir idx -q "defoliate" -k 10
//	spbtool explain -dir shard0,shard1,shard2 -q "defoliate" -r 2
//	spbtool stats -dir idx -type words
//	spbtool verify -dir idx
//	spbtool repair -dir idx
//	spbtool build -dir idx -type words -in words.txt -durable
//	spbtool wal inspect -dir idx
//	spbtool wal replay -dir idx -after 100
//
// -durable builds the generation/WAL layout (DESIGN.md §11) whose index
// accepts crash-safe inserts and deletes when served by spbserve; the wal
// subcommands examine such an index's write-ahead log.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "build":
		err = cmdBuild(os.Args[2:], os.Stdout)
	case "query":
		err = cmdQuery(os.Args[2:], os.Stdout)
	case "explain":
		err = cmdExplain(os.Args[2:], os.Stdout)
	case "stats":
		err = cmdStats(os.Args[2:], os.Stdout)
	case "verify":
		err = cmdVerify(os.Args[2:], os.Stdout)
	case "repair":
		err = cmdRepair(os.Args[2:], os.Stdout)
	case "wal":
		err = cmdWAL(os.Args[2:], os.Stdout)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		if err == flag.ErrHelp {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "spbtool:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: spbtool <build|query|explain|stats|verify|repair|wal> [flags]

  build   -dir DIR -type {words|vectors|dna|signatures} [-dim D] -in FILE
          [-pivots N] [-curve {hilbert|zorder}] [-durable]
  query   -dir DIR (-r RADIUS | -k K) -q QUERY [-stats] [-debugaddr ADDR]
  explain -dir DIR[,DIR...] (-r RADIUS | -k K) -q QUERY
          print the cost model's estimate for each directory (several
          are treated as forest shards), without executing the query
          (DESIGN.md §15)
  stats   -dir DIR [-probe] [-debugaddr ADDR]
  verify -dir DIR    audit every page, record and invariant; list corruptions
  repair -dir DIR    rebuild the index from the objects that survive
  wal    inspect|replay -dir DIR   examine a durable index's write-ahead log

-stats prints the query's per-stage breakdown (pruning counts, compdists,
index/data page accesses, stage wall clocks — see DESIGN.md §7); -debugaddr
serves expvar aggregate metrics and pprof profiles over HTTP.`)
}
