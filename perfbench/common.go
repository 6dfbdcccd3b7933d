package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"

	"vida"
	"vida/internal/values"
)

// normalizeResult reduces a result to a comparable value, as the Fig. 5
// harness does: a scalar stays a scalar, anything else becomes a bag.
func normalizeResult(r *vida.Result) values.Value {
	rows := r.Rows()
	if len(rows) == 1 && !rows[0].IsCollection() && rows[0].Kind() != "record" {
		return toInternal(rows[0])
	}
	out := make([]values.Value, len(rows))
	for i, row := range rows {
		out[i] = toInternal(row)
	}
	return values.NewBag(out...)
}

// toInternal converts a public result value to the engine's value type.
func toInternal(v vida.Value) values.Value {
	switch v.Kind() {
	case "null":
		return values.Null
	case "bool":
		return values.NewBool(v.Bool())
	case "int":
		return values.NewInt(v.Int())
	case "float":
		return values.NewFloat(v.Float())
	case "string":
		return values.NewString(v.Str())
	case "record":
		fs := v.Fields()
		out := make([]values.Field, len(fs))
		for i, f := range fs {
			out[i] = values.Field{Name: f.Name, Val: toInternal(f.Val)}
		}
		return values.NewRecord(out...)
	default:
		es := v.Elems()
		out := make([]values.Value, len(es))
		for i, e := range es {
			out[i] = toInternal(e)
		}
		return values.NewBag(out...)
	}
}

// writeIntPairsJSON writes newline-delimited {"id":…, "<b>":…} objects:
// the JSON twin of two integer columns.
func writeIntPairsJSON(path, b string, ids, bs []int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	for i := range ids {
		line = append(line[:0], `{"id":`...)
		line = strconv.AppendInt(line, ids[i], 10)
		line = append(line, fmt.Sprintf(`,%q:`, b)...)
		line = strconv.AppendInt(line, bs[i], 10)
		line = append(line, "}\n"...)
		w.Write(line)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// twinEngine registers the CSV and its JSON twin of (id, b) and returns
// the same warm aggregate over each.
func twinEngine(csvName, csvPath, csvSchema, jsonPath, b string) (*vida.Engine, string, string, error) {
	eng := vida.New()
	if err := eng.RegisterCSV(csvName, csvPath, csvSchema, nil); err != nil {
		return nil, "", "", err
	}
	if err := eng.RegisterJSON("Twin", jsonPath, fmt.Sprintf("Record(Att(id, int), Att(%s, int))", b)); err != nil {
		eng.Close()
		return nil, "", "", err
	}
	q := "for { r <- %s } yield avg (r.id * 2 + r." + b + ")"
	return eng, fmt.Sprintf(q, csvName), fmt.Sprintf(q, "Twin"), nil
}
