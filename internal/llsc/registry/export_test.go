package registry

// Locate, SegmentLen and SpineLen expose the segment geometry to the
// external tests.
var (
	Locate     = locate
	SegmentLen = segmentLen
)

const SpineLen = spineLen

// SkipTo makes n the next record index Register allocates, so a test
// can reach the MaxRecords limit without registering 65,536 records.
func (g *Registry) SkipTo(n uint64) { g.nextIdx.Store(n) }
