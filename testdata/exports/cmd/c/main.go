// Command c is a fixture for the export scans in exports_test.go.
package main

import "acasxval"

func main() { acasxval.Used().Called() }
