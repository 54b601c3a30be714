"""Tests for the dataset generators: enforced bounds, determinism, scaling."""

from repro import SchemaIndex
from repro.graph.generators import (
    dbpedia_like,
    imdb_like,
    random_labeled_graph,
    web_like,
)
from repro.graph.generators import imdb as imdb_mod
from repro.graph.generators import web as web_mod


class TestImdb:
    def test_fixed_label_domains(self, imdb_small):
        graph, _ = imdb_small
        assert graph.label_count("year") == imdb_mod.NUM_YEARS
        assert graph.label_count("award") == imdb_mod.NUM_AWARDS
        assert graph.label_count("country") == imdb_mod.NUM_COUNTRIES
        assert graph.label_count("genre") == imdb_mod.NUM_GENRES
        assert graph.label_count("studio") == imdb_mod.NUM_STUDIOS

    def test_year_values_cover_paper_range(self, imdb_small):
        graph, _ = imdb_small
        values = {graph.value_of(v) for v in graph.nodes_with_label("year")}
        assert min(values) == 1880 and max(values) == 2014

    def test_c1_enforced(self, imdb_small):
        """Every (year, award) pair has at most 4 winning movies."""
        graph, _ = imdb_small
        for award in graph.nodes_with_label("award"):
            winners_by_year = {}
            for movie in graph.neighbors(award):
                if graph.label_of(movie) != "movie":
                    continue
                for other in graph.neighbors(movie):
                    if graph.label_of(other) == "year":
                        winners_by_year.setdefault(other, []).append(movie)
            for movies in winners_by_year.values():
                assert len(movies) <= imdb_mod.MAX_MOVIES_PER_YEAR_AWARD

    def test_one_country_per_person(self, imdb_small):
        graph, _ = imdb_small
        for label in ("actor", "actress", "director"):
            for person in graph.nodes_with_label(label):
                countries = [w for w in graph.neighbors(person)
                             if graph.label_of(w) == "country"]
                assert len(countries) == 1

    def test_cast_edges_bidirectional(self, imdb_small):
        graph, _ = imdb_small
        some_movie = next(iter(graph.nodes_with_label("movie")))
        for person in graph.out_neighbors(some_movie):
            if graph.label_of(person) in ("actor", "actress"):
                assert graph.has_edge(person, some_movie)

    def test_deterministic(self):
        a, _ = imdb_like(scale=0.01, seed=5)
        b, _ = imdb_like(scale=0.01, seed=5)
        assert set(a.edges()) == set(b.edges())

    def test_different_seeds_differ(self):
        a, _ = imdb_like(scale=0.01, seed=5)
        b, _ = imdb_like(scale=0.01, seed=6)
        assert set(a.edges()) != set(b.edges())

    def test_scaling(self):
        small, schema_small = imdb_like(scale=0.01, seed=1)
        large, schema_large = imdb_like(scale=0.03, seed=1)
        assert large.num_nodes > small.num_nodes
        # Schemas are identical across scales (bounds are constants).
        assert list(schema_small) == list(schema_large)


class TestDbpedia:
    def test_schema_satisfied_across_scales(self):
        for scale in (0.01, 0.03):
            graph, schema = dbpedia_like(scale=scale, seed=2)
            assert SchemaIndex(graph, schema).satisfied()

    def test_geography_backbone(self, dbpedia_small):
        graph, _ = dbpedia_small
        for city in graph.nodes_with_label("city"):
            countries = [w for w in graph.neighbors(city)
                         if graph.label_of(w) == "country"]
            assert len(countries) == 1

    def test_rare_types_small(self, dbpedia_small):
        graph, _ = dbpedia_small
        rare = [label for label in graph.labels()
                if label.startswith("rare_type_")]
        assert rare
        for label in rare:
            assert graph.label_count(label) <= 12

    def test_film_person_bidirectional(self, dbpedia_small):
        graph, _ = dbpedia_small
        checked = 0
        for film in graph.nodes_with_label("film"):
            for person in graph.out_neighbors(film):
                if graph.label_of(person) == "person":
                    assert graph.has_edge(person, film)
                    checked += 1
            if checked > 20:
                break
        assert checked > 0


class TestWeb:
    def test_zipfian_domains(self, web_small):
        graph, _ = web_small
        sizes = sorted((graph.label_count(f"dom_{i}")
                        for i in range(web_mod.NUM_DOMAINS)), reverse=True)
        assert sizes[0] > 10 * sizes[-1]  # heavy head, long tail

    def test_satellites(self, web_small):
        graph, _ = web_small
        some_page = next(iter(graph.nodes_with_label("dom_0")))
        neighbours_by_label = {}
        for w in graph.neighbors(some_page):
            neighbours_by_label.setdefault(graph.label_of(w), []).append(w)
        assert len(neighbours_by_label.get("site", [])) == 1
        assert len(neighbours_by_label.get("registrar", [])) == 1
        assert 1 <= len(neighbours_by_label.get("category", [])) <= \
            web_mod.MAX_CATEGORIES_PER_PAGE

    def test_tail_type1_constraints_valid_across_scales(self):
        """Declared tail bounds use the base population, so one schema
        holds for every scale <= 1."""
        _, schema = web_like(scale=0.05, seed=1)
        smaller, _ = web_like(scale=0.02, seed=1)
        for constraint in schema:
            if constraint.is_type1 and constraint.target.startswith("dom_"):
                assert smaller.label_count(constraint.target) <= constraint.bound

    def test_schema_satisfied(self, web_small):
        graph, schema = web_small
        assert SchemaIndex(graph, schema).satisfied()


class TestRandomGraphs:
    def test_shape(self):
        graph = random_labeled_graph(50, 4, 120, seed=3)
        assert graph.num_nodes == 50
        assert graph.num_edges <= 120
        assert len(graph.labels()) <= 4

    def test_no_values_option(self):
        graph = random_labeled_graph(10, 2, 10, seed=3, value_range=None)
        assert all(graph.value_of(v) is None for v in graph.nodes())

    def test_deterministic(self):
        a = random_labeled_graph(30, 3, 60, seed=8)
        b = random_labeled_graph(30, 3, 60, seed=8)
        assert set(a.edges()) == set(b.edges())

    def test_tiny_graph_no_edges(self):
        graph = random_labeled_graph(1, 1, 5, seed=0)
        assert graph.num_edges == 0
