package main

import "gatefixture/internal/lib"

func main() {
	lib.Used()
	r := &lib.Res{}
	_ = r.Describe()
	var n lib.Named = r
	_ = n.Name()
	var x any = r
	if c, ok := x.(lib.Closer); ok {
		c.Close()
	}
	var o lib.Orphan
	if o != nil {
		o.Orphaned()
	}
}
