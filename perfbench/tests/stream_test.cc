// Determinism of the benchmark's inputs: the same seed must give an
// identical request stream and arrival schedule, and another seed a
// different one. Runs on the generator's default-size KG.

#include <cstdio>
#include <unordered_map>

#include "graph_engine/view.h"
#include "kg/kg_generator.h"
#include "streams.h"
#include "websim/corpus_generator.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

template <typename MakeStream>
void CheckSeeds(const char* name, MakeStream make) {
  const uint64_t a = perfbench::StreamHash(make(1));
  const uint64_t again = perfbench::StreamHash(make(1));
  const uint64_t b = perfbench::StreamHash(make(2));
  std::printf("%-9s seed 1 -> %016llx, seed 2 -> %016llx\n", name,
              static_cast<unsigned long long>(a),
              static_cast<unsigned long long>(b));
  Expect(a == again, name);
  Expect(a != b, name);
}

}  // namespace

int main() {
  const saga::kg::GeneratedKg gen = saga::kg::GenerateKg({});
  saga::graph_engine::ViewDefinition def;
  def.min_confidence = 0.4;
  const auto view = saga::graph_engine::GraphView::Build(gen.kg, def);
  const auto corpus = saga::websim::GenerateCorpus(gen, {});

  CheckSeeds("ask", [&](uint64_t s) { return perfbench::AskStream(gen, s, 5000); });
  CheckSeeds("related", [&](uint64_t s) {
    return perfbench::RelatedStream(gen, view, s, 5000);
  });
  CheckSeeds("link", [&](uint64_t s) {
    return perfbench::LinkStream(corpus, s, 5000);
  });
  CheckSeeds("writes", [&](uint64_t s) {
    return perfbench::WriteStream(gen, s, 5000);
  });
  CheckSeeds("schedule", [&](uint64_t s) {
    return perfbench::PoissonSchedule(1000.0, 2.0, s);
  });

  // Every ask query that names an entity carries the answer it means,
  // and versions of one refreshed entity count up from 1.
  const auto asks = perfbench::AskStream(gen, 3, 5000);
  size_t named = 0;
  for (const auto& r : asks) {
    if (r.subject.valid()) {
      ++named;
      Expect(r.predicate.valid(), "ask: named query without a predicate");
    }
  }
  Expect(named > asks.size() * 9 / 10, "ask: too few entity queries");
  Expect(named < asks.size(), "ask: no queries without an entity");
  std::unordered_map<saga::kg::EntityId, uint32_t> last;
  for (const auto& w : perfbench::WriteStream(gen, 3, 5000)) {
    Expect(w.version == ++last[w.entity], "writes: versions skip or repeat");
  }

  if (failures == 0) std::printf("stream_test: OK\n");
  return failures == 0 ? 0 : 1;
}
