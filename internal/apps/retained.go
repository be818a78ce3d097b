package apps

import "reflect"

// retainedBytes estimates the memory a checkpoint adds: the state's own
// value plus everything its pointers, slices, maps and interfaces lead
// to, skipping what seen already holds and adding what it visits. With
// one seen set for all the checkpoints of a golden entry, data they
// share (vidpipe's raw frame table and finished frames) is counted
// once, by the first checkpoint that reaches it.
func retainedBytes(s State, seen map[uintptr]bool) int64 {
	return int64(deepBytes(reflect.ValueOf(&s).Elem(), seen))
}

// deepBytes is the memory held indirectly by v: it excludes v's own
// size, which the container holding v already counted.
func deepBytes(v reflect.Value, seen map[uintptr]bool) uintptr {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return 0
		}
		e := v.Elem()
		if v.Kind() == reflect.Pointer {
			if seen[v.Pointer()] {
				return 0
			}
			seen[v.Pointer()] = true
		}
		return e.Type().Size() + deepBytes(e, seen)
	case reflect.Slice:
		// A zero-capacity slice holds nothing, but may point at the
		// array of a longer one, which must not count as seen.
		if v.Cap() == 0 || seen[v.Pointer()] {
			return 0
		}
		seen[v.Pointer()] = true
		n := uintptr(v.Cap()) * v.Type().Elem().Size()
		if !flat(v.Type().Elem()) {
			for i := 0; i < v.Len(); i++ {
				n += deepBytes(v.Index(i), seen)
			}
		}
		return n
	case reflect.Array:
		var n uintptr
		if !flat(v.Type().Elem()) {
			for i := 0; i < v.Len(); i++ {
				n += deepBytes(v.Index(i), seen)
			}
		}
		return n
	case reflect.Struct:
		var n uintptr
		for i := 0; i < v.NumField(); i++ {
			n += deepBytes(v.Field(i), seen)
		}
		return n
	case reflect.Map:
		if v.IsNil() {
			return 0
		}
		n := uintptr(v.Len()) * (v.Type().Key().Size() + v.Type().Elem().Size())
		for it := v.MapRange(); it.Next(); {
			n += deepBytes(it.Key(), seen) + deepBytes(it.Value(), seen)
		}
		return n
	case reflect.String:
		return uintptr(v.Len())
	}
	return 0
}

// flat reports whether values of t hold no references.
func flat(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return flat(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !flat(t.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return t.Kind() <= reflect.Complex128
}
