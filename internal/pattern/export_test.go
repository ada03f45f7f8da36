package pattern

// The settings the map-form oracle of the external tests builds and matches
// under, which are the package's.
const (
	MinSupport     = minSupport
	MaxPhraseLen   = maxPhraseLen
	Window         = window
	MaxSignificant = maxSignificant
	CoverageExp    = coverageExp
	FreqCoef       = freqCoef
	MinSetFraction = minSetFraction
)

// SectionWeights are the match weights by section.
var SectionWeights = sectionWeights

// BuildCapped is Build with at most maxSig significant terms, for the
// external test that varies the cap.
var BuildCapped = build
