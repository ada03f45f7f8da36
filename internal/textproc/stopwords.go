package textproc

import "strings"

// stopwordList is a standard English stopword list (derived from the classic
// SMART/Glasgow lists, trimmed to words that actually appear in scientific
// prose). Kept as a single string so the set is easy to audit.
const stopwordList = `
a about above after again against all also although always am among an and
any are as at be because been before being below between both but by can
cannot could did do does doing down during each either few first for from
further had has have having he her here hers herself him himself his how
however i if in into is it its itself just last latter less may me might
more most must my myself neither no nor not now of off often on once only
onto or other our ours ourselves out over own per rather same second she
should since so some such than that the their theirs them themselves then
there therefore these they third this those through thus to too under until
up upon us very was we well were what when where whether which while who
whom whose why will with within without would yet you your yours yourself
yourselves
`

var stopwordSet = func() map[string]struct{} {
	m := make(map[string]struct{}, 256)
	for _, w := range strings.Fields(stopwordList) {
		m[w] = struct{}{}
	}
	return m
}()
