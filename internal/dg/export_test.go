package dg

// forceEpoch moves the table's epoch offset to off, as if earlier epochs
// had booked keys up to off-1, so a test reaches the re-epoch clear near
// 2^38 without 2^23 resets.
func (r *ResourceTable) forceEpoch(off int64) { r.offset, r.maxKey = off, off-1 }
