package vector_test

import (
	"fmt"

	"ctxsearch/internal/vector"
)

func ExampleCosine() {
	a := vector.FromTerms([]string{"rna", "polymerase", "rna"})
	b := vector.FromTerms([]string{"rna", "polymerase"})
	fmt.Printf("%.3f\n", vector.Cosine(a, a))
	fmt.Printf("%.3f\n", vector.Cosine(a, vector.FromTerms([]string{"steel"})))
	_ = b
	// Output:
	// 1.000
	// 0.000
}

func ExampleDF_Weight() {
	// Three documents: {rna, common}, {dna, common} and {common}.
	df, _ := vector.NewDF(3, []string{"common", "dna", "rna"}, []int32{3, 1, 1})
	w := df.Weight(vector.FromTerms([]string{"rna", "common"}))
	// Rare terms outweigh ubiquitous ones.
	fmt.Println(w["rna"] > w["common"])
	// Output: true
}
