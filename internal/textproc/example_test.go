package textproc_test

import (
	"fmt"

	"ctxsearch/internal/textproc"
)

func ExampleTokenizer_Terms() {
	tok := textproc.NewTokenizer(textproc.WithStemming(), textproc.WithStopwords())
	fmt.Println(tok.Terms("The regulation of RNA binding activities"))
	// Output: [regul rna bind activ]
}

func ExamplePorterStemmer_Stem() {
	ps := textproc.NewPorterStemmer()
	for _, w := range []string{"transcription", "binding", "regulated", "ontology"} {
		fmt.Printf("%s → %s\n", w, ps.Stem(w))
	}
	// Output:
	// transcription → transcript
	// binding → bind
	// regulated → regul
	// ontology → ontolog
}
