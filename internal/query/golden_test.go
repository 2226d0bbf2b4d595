package query

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"slimfast/internal/stream"
)

// goldenEvictClaims builds the byte-golden workload: 300 objects, each
// claimed by three to seven of nine sources, with twelve values in
// play and a dissenting minority on most objects, so posteriors are
// contested and group keys span more than a handful of values.
func goldenEvictClaims() [][3]string {
	var out [][3]string
	for o := 0; o < 300; o++ {
		obj := fmt.Sprintf("g%03d", o)
		n := 3 + o%5
		for s := 0; s < n; s++ {
			src := (o*3 + s) % 9
			val := fmt.Sprintf("v%d", o%12)
			if (o+s)%3 == 0 {
				val = fmt.Sprintf("v%d", (o+5)%12)
			} else if (o*s)%7 == 3 {
				val = fmt.Sprintf("v%d", (o+s)%12)
			}
			out = append(out, [3]string{fmt.Sprintf("s%d", src), obj, val})
		}
	}
	return out
}

// goldenEvictEngine is the fixed engine TestQueryOutputGolden reads: 4
// shards capped at 50 live objects each, so the first objects of every
// shard are evicted by the time the stream ends.
func goldenEvictEngine(t *testing.T) *stream.Engine {
	t.Helper()
	opts := stream.DefaultEngineOptions()
	opts.Shards, opts.Workers, opts.EpochLength = 4, 2, 64
	opts.MaxObjects = 200
	e, err := stream.NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	ingest(e, goldenEvictClaims())
	return e
}

const goldenAggs = "count,sum:confidence,avg:confidence,min:confidence,max:confidence," +
	"sum:sources,avg:sources,min:sources,max:sources," +
	"sum:dissent,avg:dissent,min:dissent,max:dissent," +
	"sum:changed,avg:changed,min:changed,max:changed"

// goldenQueryHashes pins the SHA-256 of every query's CSV and NDJSON
// output (and, for group queries, of the NDJSON partial the cluster
// scatter ships). Any executor change must leave every digest as is.
var goldenQueryHashes = []struct {
	name, raw            string
	rows                 int
	csv, ndjson, partial string
}{
	{name: "plain", raw: "",
		rows:   200,
		csv:    "77732310209009d3fc73d6fac0bf3988a9ef7a2844c0b0f0515a86d15f3e8344",
		ndjson: "828ae74b53eeaa4edf0b790b8b6cc5b5c472c123b3fb90a362a1caa2e9e21731",
	},
	{name: "point-hit", raw: "where=object=g297",
		rows:   1,
		csv:    "6a9feace64d922fcb295244a1bca60dcf7c655b05ce20f4cebb1d068385197f2",
		ndjson: "20357453b69d998407d8ad96f6eb4e20ecf8b3886555aa8969b82cfe40b96efb",
	},
	{name: "point-miss", raw: "where=object=nosuch",
		rows:   0,
		csv:    "5bc285e932aab8662ba34ac78f44f96dafe1e195b2b73da158b3f0ec28239630",
		ndjson: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	},
	{name: "point-evicted", raw: "where=object=g000",
		rows:   0,
		csv:    "5bc285e932aab8662ba34ac78f44f96dafe1e195b2b73da158b3f0ec28239630",
		ndjson: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	},
	{name: "point-numeric-keep", raw: "where=object=g297&where=confidence>0.3&cols=object,value,confidence,contested,changed,sources,dissent",
		rows:   1,
		csv:    "87a858cd283112273604ce2a0b6cd6b35a72fa973a3a8ab1de151dce1fefa343",
		ndjson: "a26884b6303f674aad17c96b5cbf63acae4c593a747ca6b9acb3a28f54d33d2c",
	},
	{name: "point-numeric-drop", raw: "where=object=g297&where=sources<3",
		rows:   0,
		csv:    "5bc285e932aab8662ba34ac78f44f96dafe1e195b2b73da158b3f0ec28239630",
		ndjson: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	},
	{name: "point-disagree", raw: "where=object=g296&disagree=s6,s7&cols=object,value,dissent",
		rows:   1,
		csv:    "712a7f78324b3533f7dc0054d162c0e6eb554962c6e33b844b961f2c6cf6258e",
		ndjson: "3724ca468b7c1903f6313cb32124711d14965cf8ed3d95c4bade75121695c75a",
	},
	{name: "point-disagree-miss", raw: "where=object=g296&disagree=s0,s1",
		rows:   0,
		csv:    "5bc285e932aab8662ba34ac78f44f96dafe1e195b2b73da158b3f0ec28239630",
		ndjson: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	},
	{name: "group-value", raw: "group=value&agg=" + goldenAggs,
		rows:    8,
		csv:     "11e815ad8dc3be6493df4922bd466d9e2fbc9d3731052e26838aa9fb30fb0c2e",
		ndjson:  "0ff8a193931197c38cb373a36d27e7c8b6e844b1a7f69197540eda300193971c",
		partial: "81d0f629283c46a15af9418d894125392889872e447902cf91b6fa63c3821702",
	},
	{name: "group-sources", raw: "group=sources&agg=" + goldenAggs,
		rows:    5,
		csv:     "932d3198ee7e5a7d64891bb56d463a786ef2555f3e46aa0666a6df3f5e4b927f",
		ndjson:  "4dbdeb76f21d959e8d70d360577aebc1047a876d25f93b03ca120d689ac7db21",
		partial: "6b6b793776d1dfe92fe8c08adeb42a811e98863508cdadbd87dfe773e8806b94",
	},
	{name: "group-changed", raw: "group=changed&agg=" + goldenAggs,
		rows:    10,
		csv:     "c00cf09686a0f3679e65acbdbbbb7136c57e065d4b99f7f3de49bccf8cd47beb",
		ndjson:  "e3a48e6aca53952b3cb99cab95456e25f27b09ad2a9a14185e6bd67a393e3bdf",
		partial: "5a0dbde7cdad2a16f01cf8f2941a0f63bd435e889150712d62d060e8b75e5475",
	},
	{name: "group-value-filtered", raw: "group=value&agg=count,sum:confidence,max:dissent&where=confidence<0.9&where=dissent>=1",
		rows:    8,
		csv:     "dde387a5f0fa516e7a5f66b9b15069ee262130607c735d809bc464902ecd72b5",
		ndjson:  "b599328e187c743884b0af12a951013dd792f71e1482c4e90044ccf0ca990863",
		partial: "df3b6bcbb387e40010b008f4d9ec3c215b164114cb39cd365b4404729a742c61",
	},
	{name: "group-point", raw: "group=value&agg=" + goldenAggs + "&where=object=g297",
		rows:    1,
		csv:     "462c513b85d305eaf0721d3f3fa04db2e334d869cd3d6520115226562b36c289",
		ndjson:  "8ca4d037f191a39105e07d42c3d793f02f32168ed36a25b7ed5429515c9dcd30",
		partial: "7eafdfa9aca3dc895cedf9aea2e284dbcebea2e32204be242a910e4aba0b91c7",
	},
	{name: "group-disagree", raw: "group=sources&agg=count,avg:confidence&disagree=s2,s5",
		rows:    2,
		csv:     "bcb8c8062bc43f242a7f6dd4d275ef10a6c19f837db08ecd57af8ed7af02d4fb",
		ndjson:  "992717063e6bccd3fa2d6039f1242c92f8dbe1c267df872afde35b8c49629e0c",
		partial: "3e39db0ab2758073b92d2ecb9f5ee0e9c79e9b4c5f69877da16add061e2e8a71",
	},
	{name: "topk-contested", raw: "order=-contested&limit=10&cols=object,value,confidence,contested,dissent",
		rows:   10,
		csv:    "6b4dfe5767fecffab943c5cc636169c7c88fc1afbe5f17f1d379460dce7fc59d",
		ndjson: "e0226c15c80c6206540a6cb257e542c9fe38e05c1efbd41f4b0dea3ecf02ce7d",
	},
	{name: "topk-window", raw: "where=contested>0.5&order=-contested&limit=20",
		rows:   15,
		csv:    "e0b36111f6995c712d773638f027056565e28cbacfd0609e25db98ec760efc1f",
		ndjson: "4cd91e65af5d10a520814e1f682685c6c0edb12d3d0cb9d3d3939ed14d4acfab",
	},
	{name: "order-multi", raw: "where=dissent!=0&order=-changed,value&limit=15&cols=object,value,changed,dissent",
		rows:   15,
		csv:    "b5d07530590b3e6ab6337efc1923ec10879cef424f68dbf490d2d3d491b52756",
		ndjson: "1e120ff9ef483b3fb80026e0bb983c291d9489d3b1613d642ff33192d24f58dc",
	},
	{name: "order-only-dissent", raw: "order=-dissent&limit=7",
		rows:   7,
		csv:    "e119fdd1836e81344206fe772c251a1e38b3ce853c946eef94cf7fa0e8708086",
		ndjson: "58a1f76550414e6da6d883c89466a533ba83e541847772aba95cfc101d76c32f",
	},
	{name: "where-only-contested", raw: "where=contested>0.4&cols=object",
		rows:   21,
		csv:    "df8373701b577e358d561f003cc5f0876d6acdcad9681749c54e9ac0d7b26c1b",
		ndjson: "6d0c888baf12c9ebc56ac5afdd7da9abe8977d2c514d7504d08e806c82d73e59",
	},
	{name: "agg-only-contested", raw: "group=value&agg=max:contested",
		rows:    8,
		csv:     "0f341c53212e329bbd62d59e99bc70e170edfb09041011ad454a49292d81ce9e",
		ndjson:  "2223bddcb2dd6527343c310944aaea70bac7938d9a0c681e9be91df8c8f89c98",
		partial: "5747e64057c9b723136da3afc1253d8f435afa9c122e98fc5dc0797c4b691ab6",
	},
	{name: "group-dissent", raw: "group=dissent",
		rows:    5,
		csv:     "e6e47515e2126dcc11c3f11ce8c77c76991358b98bc1038c1ebdd2eeda4dc085",
		ndjson:  "adea0bbb4eae73c33919dc777feb814ba8a96b253661f1ea6585eee2b006ad9e",
		partial: "34c3b54289ceeabd3409954b4e80b25af6615c648b8cef5d5fb5757bf231e86e",
	},
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestQueryOutputGolden pins the executor's bytes on a fixed engine
// with contested multi-claim objects and evictions: point hits, misses
// and evicted objects, object conjuncts mixed with numeric filters and
// the disagree pair, group aggregates of every function over float and
// int columns, and contested top-k windows.
func TestQueryOutputGolden(t *testing.T) {
	e := goldenEvictEngine(t)
	for _, est := range e.EstimateAll() {
		if est.Object == "g000" {
			t.Fatal("g000 is still live: the golden engine must have evicted it")
		}
	}
	for _, tc := range goldenQueryHashes {
		q := parseQ(t, tc.raw)
		render := func(format string) (string, int) {
			res, err := Execute(e, q)
			if err != nil {
				t.Fatalf("%s: Execute: %v", tc.name, err)
			}
			var buf bytes.Buffer
			if err := Write(&buf, res, format); err != nil {
				t.Fatal(err)
			}
			return sha(buf.Bytes()), bytes.Count(buf.Bytes(), []byte("\n"))
		}
		csvHash, lines := render("csv")
		ndHash, _ := render("json")
		partHash := ""
		if q.Group != "" {
			res, err := ExecutePartial(e, q)
			if err != nil {
				t.Fatalf("%s: ExecutePartial: %v", tc.name, err)
			}
			var buf bytes.Buffer
			if err := WriteNDJSON(&buf, res); err != nil {
				t.Fatal(err)
			}
			partHash = sha(buf.Bytes())
		}
		if lines-1 != tc.rows || csvHash != tc.csv || ndHash != tc.ndjson || partHash != tc.partial {
			t.Errorf("%s (%q) drifted:\n got rows %d csv %s ndjson %s partial %q\nwant rows %d csv %s ndjson %s partial %q",
				tc.name, tc.raw, lines-1, csvHash, ndHash, partHash, tc.rows, tc.csv, tc.ndjson, tc.partial)
		}
	}
}
