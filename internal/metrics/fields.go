package metrics

import (
	"fmt"
	"reflect"
)

// Fold adds every exported integer field of src into the same field of dst,
// recursing into nested structs. A field tagged fold:"max" is a peak gauge
// and keeps the larger of the two values instead of their sum. dst is a
// pointer to a struct; src is a struct of the same type or a pointer to
// one. A field of any other kind panics: a counter struct holds counters.
func Fold(dst, src any) {
	d := reflect.ValueOf(dst).Elem()
	s := reflect.Indirect(reflect.ValueOf(src))
	if d.Type() != s.Type() {
		panic(fmt.Sprintf("metrics: Fold of %s into %s", s.Type(), d.Type()))
	}
	fold(d, s)
}

func fold(d, s reflect.Value) {
	t := d.Type()
	for i := range t.NumField() {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		df, sf := d.Field(i), s.Field(i)
		switch {
		case df.Kind() == reflect.Struct:
			fold(df, sf)
		case !df.CanInt():
			panic(fmt.Sprintf("metrics: Fold: %s.%s is a %s, not an integer counter", t, f.Name, df.Kind()))
		case f.Tag.Get("fold") == "max":
			df.SetInt(max(df.Int(), sf.Int()))
		default:
			df.SetInt(df.Int() + sf.Int())
		}
	}
}

// Fields calls fn for every exported numeric field of the struct v is or
// points to, in declaration order, with the field's tag and its value as a
// float64. A field of a named nested struct is reported as "Outer.Inner";
// the fields of an embedded struct keep their promoted names. Fields of any
// other kind (strings, slices, pointers, interfaces) are skipped.
func Fields(v any, fn func(name string, tag reflect.StructTag, x float64)) {
	walk(reflect.Indirect(reflect.ValueOf(v)), "", fn)
}

func walk(v reflect.Value, prefix string, fn func(string, reflect.StructTag, float64)) {
	t := v.Type()
	for i := range t.NumField() {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		x := v.Field(i)
		switch {
		case x.Kind() == reflect.Struct && f.Anonymous:
			walk(x, prefix, fn)
		case x.Kind() == reflect.Struct:
			walk(x, prefix+f.Name+".", fn)
		case x.CanInt():
			fn(prefix+f.Name, f.Tag, float64(x.Int()))
		case x.CanFloat():
			fn(prefix+f.Name, f.Tag, x.Float())
		}
	}
}
