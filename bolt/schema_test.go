package bolt_test

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"gobolt/bolt"
	"gobolt/internal/bincheck"
	"gobolt/internal/core"
	"gobolt/internal/obsv"
)

// jsonKeys returns the JSON object keys a struct marshals to: the json
// tag name when present, the Go field name otherwise, skipping "-".
func jsonKeys(t reflect.Type) []string {
	var keys []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name := f.Name
		if tag, ok := f.Tag.Lookup("json"); ok {
			tagName, _, _ := strings.Cut(tag, ",")
			if tagName == "-" {
				continue
			}
			if tagName != "" {
				name = tagName
			}
		}
		keys = append(keys, name)
	}
	sort.Strings(keys)
	return keys
}

type schemaDef struct {
	AdditionalProperties *bool                      `json:"additionalProperties"`
	Required             []string                   `json:"required"`
	Properties           map[string]json.RawMessage `json:"properties"`
}

func loadSchemaDefs(t *testing.T, path string) map[string]schemaDef {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read schema: %v", err)
	}
	var doc struct {
		Ref  string               `json:"$ref"`
		Defs map[string]schemaDef `json:"$defs"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("parse schema: %v", err)
	}
	if doc.Ref == "" || doc.Defs[strings.TrimPrefix(doc.Ref, "#/$defs/")].Properties == nil {
		t.Fatalf("schema root $ref %q does not resolve to a definition with properties", doc.Ref)
	}
	return doc.Defs
}

// checkSchemaDefs pins each named definition in a committed JSON Schema
// to the Go struct it documents: property keys must match the struct's
// JSON keys exactly, unknown fields must be rejected
// (additionalProperties: false), and every required key must exist.
func checkSchemaDefs(t *testing.T, defs map[string]schemaDef, types map[string]reflect.Type) {
	t.Helper()
	for name, typ := range types {
		def, ok := defs[name]
		if !ok {
			t.Errorf("schema is missing the %q definition", name)
			continue
		}
		if def.AdditionalProperties == nil || *def.AdditionalProperties {
			t.Errorf("schema def %q must set additionalProperties: false (the Go decoder is strict)", name)
		}
		var got []string
		for k := range def.Properties {
			got = append(got, k)
		}
		sort.Strings(got)
		if want := jsonKeys(typ); !reflect.DeepEqual(got, want) {
			t.Errorf("schema def %q properties drifted from %v:\n  schema: %v\n  struct: %v",
				name, typ, got, want)
		}
		for _, req := range def.Required {
			if _, ok := def.Properties[req]; !ok {
				t.Errorf("schema def %q requires %q but does not define it", name, req)
			}
		}
	}
	for name := range defs {
		if _, ok := types[name]; !ok {
			t.Errorf("schema def %q has no Go struct mapped in this test; extend the map", name)
		}
	}
}

// TestReportSchemaInSync keeps docs/report.schema.json honest: every
// definition mirrors the Go struct behind the run report exactly, so
// schema drift fails here instead of surprising downstream consumers.
func TestReportSchemaInSync(t *testing.T) {
	defs := loadSchemaDefs(t, "../docs/report.schema.json")
	checkSchemaDefs(t, defs, map[string]reflect.Type{
		"run_report": reflect.TypeOf(bolt.Report{}),
		"options":    reflect.TypeOf(core.Options{}),
		"functions":  reflect.TypeOf(core.Functions{}),
		"sizes":      reflect.TypeOf(core.Sizes{}),
		"phase":      reflect.TypeOf(core.PassTiming{}),
		"occupancy":  reflect.TypeOf(obsv.PhaseStats{}),
		"task_stat":  reflect.TypeOf(obsv.TaskStat{}),
		"profile":    reflect.TypeOf(bolt.Profile{}),
		"dyno":       reflect.TypeOf(bolt.Dyno{}),
		"dyno_stats": reflect.TypeOf(core.DynoStats{}),
		"verify":     reflect.TypeOf(bincheck.Result{}),
		"finding":    reflect.TypeOf(bincheck.Finding{}),
	})
}
