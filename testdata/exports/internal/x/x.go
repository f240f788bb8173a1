// Package x is a fixture for the export scans in exports_test.go.
package x

// T carries one method of each kind the method scan tells apart.
type T struct{}

// String is called by fmt, never by a selector in this tree.
func (T) String() string { return "t" }

// Called is selected by cmd/c.
func (T) Called() {}

// Declared is named by the interface I.
func (T) Declared() {}

// Dead is selected only by itself.
func (t T) Dead() { t.Dead() }

// I declares Declared.
type I interface{ Declared() }
