//go:build adsmcheck

package core

// Binaries built with -tags adsmcheck check every page-state move and
// every shared frame, as the core test build does.
func init() { checkPageStates = true }
