//go:build adsmcheck

package harness

// A checked build allocates for its invariant checks: the allocation pins
// describe the unchecked simulator only.
func init() { checkedBuild = true }
