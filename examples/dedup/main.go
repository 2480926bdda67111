// Command dedup demonstrates the data-cleaning use case motivating the
// paper's similarity join (Definition 4): matching dirty customer names in
// sales records against a clean master register under edit distance. Two
// Z-order SPB-trees share one mapped space and a single merge pass (SJA,
// Algorithm 3) finds all pairs within the typo threshold ε.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"spbtree"
)

func main() {
	master := []string{
		"jonathan meyers", "catherine oliveira", "robert kaczmarek",
		"elizabeth warrington", "michael donaldson", "sarah fitzgerald",
		"william harrington", "jennifer castellano", "christopher delacroix",
		"amanda richardson", "daniel kowalczyk", "rebecca summerfield",
		"matthew ostrowski", "nicole vandenberg", "gregory whitfield",
	}
	rng := rand.New(rand.NewSource(7))

	// Sales records: each master name appears several times with typos,
	// plus unrelated names that must not match.
	var sales []string
	for _, name := range master {
		for c := 0; c < 4; c++ {
			sales = append(sales, typo(name, rng))
		}
	}
	for i := 0; i < 30; i++ {
		sales = append(sales, fmt.Sprintf("unrelated customer %02d", i))
	}

	masterObjs := make([]spbtree.Object, len(master))
	for i, s := range master {
		masterObjs[i] = spbtree.NewStr(uint64(i), s)
	}
	salesObjs := make([]spbtree.Object, len(sales))
	for i, s := range sales {
		salesObjs[i] = spbtree.NewStr(uint64(1000+i), s)
	}

	dist := spbtree.EditDistance{MaxLen: 34}
	tq, err := spbtree.Build(masterObjs, spbtree.Options{
		Distance: dist, Codec: spbtree.StrCodec{}, Curve: spbtree.ZOrder, NumPivots: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	to, err := spbtree.Build(salesObjs, spbtree.Options{
		Distance: dist, Codec: spbtree.StrCodec{}, Curve: spbtree.ZOrder, ShareMapping: tq,
	})
	if err != nil {
		log.Fatal(err)
	}

	const eps = 3 // tolerate up to three edits
	pairs, stats, err := spbtree.Join(context.Background(), tq, to, eps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SJ(master, sales, ε=%d): %d matches out of %d×%d candidate pairs\n",
		eps, len(pairs), len(master), len(sales))
	fmt.Printf("one merge pass: PA=%d, compdists=%d (nested loop would need %d)\n\n",
		stats.PageAccesses(), stats.Compdists, len(master)*len(sales))

	matched := map[string]int{}
	for _, p := range pairs {
		matched[p.Q.(*spbtree.Str).S]++
	}
	for _, name := range master {
		fmt.Printf("%-24s matched %d sales records\n", name, matched[name])
	}
}

// typo injects 1-2 random edits into a name.
func typo(s string, rng *rand.Rand) string {
	b := []byte(s)
	for edits := 1 + rng.Intn(2); edits > 0 && len(b) > 2; edits-- {
		switch rng.Intn(3) {
		case 0: // drop a character
			p := rng.Intn(len(b))
			b = append(b[:p], b[p+1:]...)
		case 1: // duplicate a character
			p := rng.Intn(len(b))
			b = append(b[:p], append([]byte{b[p]}, b[p:]...)...)
		default: // swap adjacent characters
			p := rng.Intn(len(b) - 1)
			b[p], b[p+1] = b[p+1], b[p]
		}
	}
	return string(b)
}
