// Package acasxval is a fixture for the export scans in exports_test.go.
package acasxval

import "acasxval/internal/x"

// SignatureOnly is named by no command, only by Used's result.
type SignatureOnly = x.T

// Used is selected by cmd/c.
func Used() SignatureOnly { return x.T{} }

// Unused is selected by nothing.
func Unused() {}
