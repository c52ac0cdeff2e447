package core

// Fixtures shared with the external tests of this package.
var (
	MixedWindowTrace = mixedWindowTrace
	PairRichTrace    = pairRichTrace
)
