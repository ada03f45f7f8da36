package textproc

// PorterStemmer implements the classic Porter (1980) suffix-stripping
// algorithm. The implementation follows the original paper's five steps
// exactly; it operates on lowercase ASCII words and returns non-ASCII or
// very short words unchanged.
//
// The stemmer is stateless and safe for concurrent use.
type PorterStemmer struct{}

// NewPorterStemmer returns a ready-to-use stemmer.
func NewPorterStemmer() *PorterStemmer { return &PorterStemmer{} }

// Stem returns the Porter stem of word. Words of length ≤ 2 are returned
// unchanged, per the original algorithm.
//
// Stem only strips or rewrites a suffix, so it never lengthens a word and
// never changes its first byte: len(Stem(w)) ≤ len(w), and Stem(w) is empty
// or begins with w[0]. Snippet highlighting relies on both to skip words
// that cannot stem to a query's stem (FuzzPorterStem,
// TestPorterStemContractOnCorpus).
func (ps *PorterStemmer) Stem(word string) string {
	if len(word) <= 2 || !isASCIILower(word) {
		return word
	}
	b := []byte(word)
	b = step1a(b)
	b = step1b(b)
	b = step1c(b)
	b = step2(b)
	b = step3(b)
	b = step4(b)
	b = step5a(b)
	b = step5b(b)
	return string(b)
}

func isASCIILower(w string) bool {
	for i := 0; i < len(w); i++ {
		c := w[i]
		if c < 'a' || c > 'z' {
			if c == '-' { // hyphenated compounds: stem only if pure letters
				return false
			}
			return false
		}
	}
	return true
}

// isConsonant reports whether b[i] is a consonant in Porter's sense:
// a letter other than a,e,i,o,u, and y when preceded by a vowel is a vowel.
func isConsonant(b []byte, i int) bool {
	switch b[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !isConsonant(b, i-1)
	}
	return true
}

// measure computes m, the number of VC sequences in b[:end].
func measure(b []byte, end int) int {
	m := 0
	i := 0
	// skip initial consonants
	for i < end && isConsonant(b, i) {
		i++
	}
	for {
		// skip vowels
		for i < end && !isConsonant(b, i) {
			i++
		}
		if i >= end {
			return m
		}
		// skip consonants
		for i < end && isConsonant(b, i) {
			i++
		}
		m++
		if i >= end {
			return m
		}
	}
}

func hasVowel(b []byte, end int) bool {
	for i := 0; i < end; i++ {
		if !isConsonant(b, i) {
			return true
		}
	}
	return false
}

// endsDoubleConsonant reports whether b ends with a double consonant (*d).
func endsDoubleConsonant(b []byte) bool {
	n := len(b)
	return n >= 2 && b[n-1] == b[n-2] && isConsonant(b, n-1)
}

// endsCVC reports the *o condition: stem ends cvc where the final consonant
// is not w, x or y.
func endsCVC(b []byte, end int) bool {
	if end < 3 {
		return false
	}
	i := end - 1
	if !isConsonant(b, i) || isConsonant(b, i-1) || !isConsonant(b, i-2) {
		return false
	}
	switch b[i] {
	case 'w', 'x', 'y':
		return false
	}
	return true
}

func hasSuffix(b []byte, s string) bool {
	return len(b) >= len(s) && string(b[len(b)-len(s):]) == s
}

// replaceSuffix replaces suffix s with r when the measure of the remaining
// stem satisfies cond (called with the stem length). Returns (result, true)
// if the suffix matched at all, regardless of whether cond passed.
func replaceSuffix(b []byte, s, r string, cond func(stemLen int) bool) ([]byte, bool) {
	if !hasSuffix(b, s) {
		return b, false
	}
	stemLen := len(b) - len(s)
	if cond != nil && !cond(stemLen) {
		return b, true
	}
	out := make([]byte, 0, stemLen+len(r))
	out = append(out, b[:stemLen]...)
	out = append(out, r...)
	return out, true
}

func step1a(b []byte) []byte {
	switch {
	case hasSuffix(b, "sses"):
		return b[:len(b)-2]
	case hasSuffix(b, "ies"):
		return b[:len(b)-2]
	case hasSuffix(b, "ss"):
		return b
	case hasSuffix(b, "s"):
		return b[:len(b)-1]
	}
	return b
}

func step1b(b []byte) []byte {
	if hasSuffix(b, "eed") {
		if measure(b, len(b)-3) > 0 {
			return b[:len(b)-1]
		}
		return b
	}
	matched := false
	var stem []byte
	if hasSuffix(b, "ed") && hasVowel(b, len(b)-2) {
		stem = b[:len(b)-2]
		matched = true
	} else if hasSuffix(b, "ing") && hasVowel(b, len(b)-3) {
		stem = b[:len(b)-3]
		matched = true
	}
	if !matched {
		return b
	}
	switch {
	case hasSuffix(stem, "at"), hasSuffix(stem, "bl"), hasSuffix(stem, "iz"):
		return append(stem, 'e')
	case endsDoubleConsonant(stem):
		last := stem[len(stem)-1]
		if last != 'l' && last != 's' && last != 'z' {
			return stem[:len(stem)-1]
		}
		return stem
	case measure(stem, len(stem)) == 1 && endsCVC(stem, len(stem)):
		return append(stem, 'e')
	}
	return stem
}

func step1c(b []byte) []byte {
	if hasSuffix(b, "y") && hasVowel(b, len(b)-1) {
		out := make([]byte, len(b))
		copy(out, b)
		out[len(out)-1] = 'i'
		return out
	}
	return b
}

// step2 maps double suffixes to single ones when m(stem) > 0.
var step2Rules = []struct{ from, to string }{
	{"ational", "ate"}, {"tional", "tion"}, {"enci", "ence"}, {"anci", "ance"},
	{"izer", "ize"}, {"abli", "able"}, {"alli", "al"}, {"entli", "ent"},
	{"eli", "e"}, {"ousli", "ous"}, {"ization", "ize"}, {"ation", "ate"},
	{"ator", "ate"}, {"alism", "al"}, {"iveness", "ive"}, {"fulness", "ful"},
	{"ousness", "ous"}, {"aliti", "al"}, {"iviti", "ive"}, {"biliti", "ble"},
	// "logi" -> "log" is the one departure from the 1980 paper adopted in
	// Porter's official revised definition; without it "ontology" stems to
	// "ontologi" while "ontological" stems to "ontolog".
	{"logi", "log"},
}

func step2(b []byte) []byte {
	for _, r := range step2Rules {
		if out, ok := replaceSuffix(b, r.from, r.to, func(sl int) bool { return measure(b, sl) > 0 }); ok {
			return out
		}
	}
	return b
}

var step3Rules = []struct{ from, to string }{
	{"icate", "ic"}, {"ative", ""}, {"alize", "al"}, {"iciti", "ic"},
	{"ical", "ic"}, {"ful", ""}, {"ness", ""},
}

func step3(b []byte) []byte {
	for _, r := range step3Rules {
		if out, ok := replaceSuffix(b, r.from, r.to, func(sl int) bool { return measure(b, sl) > 0 }); ok {
			return out
		}
	}
	return b
}

var step4Suffixes = []string{
	"al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
	"ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
}

func step4(b []byte) []byte {
	for _, s := range step4Suffixes {
		if !hasSuffix(b, s) {
			continue
		}
		stemLen := len(b) - len(s)
		if measure(b, stemLen) <= 1 {
			return b
		}
		if s == "ion" {
			// (m>1 and (*S or *T)) ION
			if stemLen == 0 || (b[stemLen-1] != 's' && b[stemLen-1] != 't') {
				return b
			}
		}
		return b[:stemLen]
	}
	return b
}

func step5a(b []byte) []byte {
	if !hasSuffix(b, "e") {
		return b
	}
	stemLen := len(b) - 1
	m := measure(b, stemLen)
	if m > 1 || (m == 1 && !endsCVC(b, stemLen)) {
		return b[:stemLen]
	}
	return b
}

func step5b(b []byte) []byte {
	if measure(b, len(b)) > 1 && endsDoubleConsonant(b) && b[len(b)-1] == 'l' {
		return b[:len(b)-1]
	}
	return b
}
