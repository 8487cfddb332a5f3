package storage

import "repro/internal/datum"

// AsMap returns the object's attributes as a plain map, the form the
// map models of the tests compare against.
func (o Object) AsMap() map[string]datum.Value { return o.Row.Map() }
