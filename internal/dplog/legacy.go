package dplog

import "fmt"

// flatEpochs decodes the rest of a retired v4 or v5 file, the cursor
// standing just past its header h: h.Sections bare epoch bodies
// (docs/FORMAT.md appendix) with no framing, checksums or index, read by
// the same body walker as a v6 section payload. Only Upgrade calls it.
func (c *cursor) flatEpochs(h Header) (*Recording, error) {
	rec := recordingOf(h)
	for i := 0; i < h.Sections; i++ {
		ep := new(EpochLog)
		c.epochBody(ep, h.Version >= 5)
		if c.err != nil {
			return nil, fmt.Errorf("dplog: epoch %d: %w", i, c.err)
		}
		rec.Epochs = append(rec.Epochs, ep)
	}
	return rec, nil
}
