"""Tests for the ResponseMatrix data structure."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.response import NO_ANSWER, ResponseMatrix, score_against_truth
from repro.exceptions import DisconnectedGraphError, InvalidResponseMatrixError


class TestConstruction:
    def test_basic_shape_properties(self, paper_example_response):
        response = paper_example_response
        assert response.num_users == 4
        assert response.num_items == 3
        assert response.max_options == 3
        assert response.num_option_columns == 9

    def test_choices_are_copied(self):
        choices = np.array([[0, 1], [1, 0]])
        response = ResponseMatrix(choices, num_options=2)
        choices[0, 0] = 1
        assert response.choices[0, 0] == 0

    def test_float_integers_accepted(self):
        response = ResponseMatrix(np.array([[0.0, 1.0], [1.0, np.nan]]), num_options=2)
        assert response.choices[1, 1] == NO_ANSWER

    def test_non_integer_floats_rejected(self):
        with pytest.raises(InvalidResponseMatrixError):
            ResponseMatrix(np.array([[0.5, 1.0]]), num_options=2)

    def test_empty_matrix_rejected(self):
        with pytest.raises(InvalidResponseMatrixError):
            ResponseMatrix(np.empty((0, 0), dtype=int))

    def test_all_missing_rejected(self):
        with pytest.raises(InvalidResponseMatrixError):
            ResponseMatrix(np.full((3, 3), NO_ANSWER), num_options=3)

    def test_choice_out_of_range_rejected(self):
        with pytest.raises(InvalidResponseMatrixError):
            ResponseMatrix(np.array([[0, 3]]), num_options=3)

    def test_choice_below_minus_one_rejected(self):
        with pytest.raises(InvalidResponseMatrixError):
            ResponseMatrix(np.array([[-2, 0]]), num_options=2)

    def test_per_item_option_counts(self):
        response = ResponseMatrix(np.array([[0, 1], [1, 2]]), num_options=[2, 3])
        np.testing.assert_array_equal(response.num_options, [2, 3])
        assert response.num_option_columns == 5

    def test_wrong_num_options_length_rejected(self):
        with pytest.raises(InvalidResponseMatrixError):
            ResponseMatrix(np.array([[0, 1]]), num_options=[2])

    def test_inferred_num_options(self):
        response = ResponseMatrix(np.array([[0, 2], [1, 0]]))
        assert response.num_options[1] == 3


class TestCanonicalKeyRange:
    """``from_triples`` sorts and deduplicates on ``user * num_items + item``.

    That key must fit in int64; shapes where it would wrap are rejected
    with a typed error instead of silently mis-sorting.
    """

    def test_wrapping_shape_cannot_fake_a_duplicate(self):
        # (2**61 + 5) * 8 wraps to 5 * 8: without the guard these two
        # distinct users collide as a "duplicate answer".
        with pytest.raises(InvalidResponseMatrixError, match="too large"):
            ResponseMatrix.from_triples(
                [5, 2**61 + 5], [3, 3], [0, 1], shape=(2**62, 8)
            )

    def test_wrapping_shape_cannot_accept_non_canonical_order(self):
        # 2**61 * 8 wraps to 0, below 5 * 8: without the guard these
        # triples are taken as already sorted and stored out of order.
        with pytest.raises(InvalidResponseMatrixError, match="too large"):
            ResponseMatrix.from_triples(
                [2**61, 5], [0, 0], [0, 1], shape=(2**62, 8)
            )

    def test_largest_fitting_shape_sorts_canonically(self):
        # num_users * num_items == 2**63: the largest key is 2**63 - 1.
        matrix = ResponseMatrix.from_triples(
            [2**62 - 1, 5], [1, 0], [1, 0], shape=(2**62, 2)
        )
        users, items, _ = matrix.triples
        np.testing.assert_array_equal(users, [5, 2**62 - 1])
        np.testing.assert_array_equal(items, [0, 1])


class TestBinaryRepresentation:
    def test_binary_matches_paper_example(self, paper_example_response):
        binary = paper_example_response.binary_dense
        assert binary.shape == (4, 9)
        # Every user answers every item: one 1 per item block per row.
        assert binary.sum() == 12
        np.testing.assert_array_equal(binary.sum(axis=1), [3, 3, 3, 3])

    def test_binary_one_hot_positions(self):
        response = ResponseMatrix(np.array([[2, 0]]), num_options=3)
        expected = np.array([[0, 0, 1, 1, 0, 0]])
        np.testing.assert_array_equal(response.binary_dense, expected)

    def test_missing_answer_gives_zero_block(self):
        response = ResponseMatrix(np.array([[NO_ANSWER, 1]]), num_options=2)
        np.testing.assert_array_equal(response.binary_dense, [[0, 0, 0, 1]])

    def test_from_binary_roundtrip(self, paper_example_response):
        rebuilt = ResponseMatrix.from_binary(
            paper_example_response.binary_dense, num_options=3
        )
        assert rebuilt == paper_example_response

    def test_from_binary_rejects_double_choice(self):
        bad = np.array([[1, 1, 0, 0]])
        with pytest.raises(InvalidResponseMatrixError):
            ResponseMatrix.from_binary(bad, num_options=2)

    def test_from_binary_rejects_non_binary(self):
        with pytest.raises(InvalidResponseMatrixError):
            ResponseMatrix.from_binary(np.array([[2, 0]]), num_options=2)

    def test_row_normalized_sums(self, paper_example_response):
        row_norm = paper_example_response.row_normalized()
        np.testing.assert_allclose(np.asarray(row_norm.sum(axis=1)).ravel(), np.ones(4))

    def test_column_normalized_sums(self, paper_example_response):
        col_norm = paper_example_response.column_normalized()
        sums = np.asarray(col_norm.sum(axis=0)).ravel()
        # Chosen columns sum to 1, never-chosen columns stay 0.
        assert set(np.round(sums, 6)).issubset({0.0, 1.0})

    def test_user_similarity_diagonal_counts_answers(self, paper_example_response):
        similarity = paper_example_response.user_similarity()
        np.testing.assert_allclose(np.diag(similarity), [3, 3, 3, 3])
        assert similarity[0, 1] == 2  # users 1 and 2 share items 2 and 3 choices


class TestStatisticsAndTransforms:
    def test_answers_per_user_and_item(self):
        choices = np.array([[0, NO_ANSWER], [1, 1]])
        response = ResponseMatrix(choices, num_options=2)
        np.testing.assert_array_equal(response.answers_per_user, [1, 2])
        np.testing.assert_array_equal(response.answers_per_item, [2, 1])
        assert not response.is_complete

    def test_majority_choices(self, paper_example_response):
        np.testing.assert_array_equal(
            paper_example_response.majority_choices(), [2, 0, 0]
        )

    def test_option_counts(self, paper_example_response):
        np.testing.assert_array_equal(
            paper_example_response.option_counts(0), [1, 0, 3]
        )

    def test_choice_entropy_zero_for_unanimous(self):
        response = ResponseMatrix(np.array([[1, 1], [1, 1]]), num_options=2)
        assert response.choice_entropy() == pytest.approx(0.0)

    def test_choice_entropy_maximal_for_uniform(self):
        response = ResponseMatrix(np.array([[0], [1]]), num_options=2)
        assert response.choice_entropy() == pytest.approx(1.0)

    def test_choice_entropy_subset_of_users(self, paper_example_response):
        all_users = paper_example_response.choice_entropy()
        top_only = paper_example_response.choice_entropy([3])
        assert top_only <= all_users

    def test_permute_users(self, paper_example_response):
        permuted = paper_example_response.permute_users([3, 2, 1, 0])
        np.testing.assert_array_equal(permuted.choices[0], paper_example_response.choices[3])

    def test_permute_users_requires_permutation(self, paper_example_response):
        with pytest.raises(ValueError):
            paper_example_response.permute_users([0, 0, 1, 2])

    @given(seed=st.integers(min_value=0, max_value=200))
    @settings(max_examples=25, deadline=None)
    def test_transforms_keep_canonical_lexsort_order(self, seed):
        """permute_users / subset_items equal a two-key lexsort re-sort."""
        rng = np.random.default_rng(seed)
        choices = rng.integers(-1, 3, size=(9, 6))
        choices[0, 0] = 0
        response = ResponseMatrix(choices, num_options=3)
        users, items, options = response.triples

        order = rng.permutation(9)
        inverse = np.argsort(order)
        expected = np.lexsort((items, inverse[users]))
        permuted = response.permute_users(order).triples
        for got, want in zip(permuted, (inverse[users], items, options)):
            np.testing.assert_array_equal(got, want[expected])

        keep = rng.choice(6, size=4, replace=False)
        chosen = np.isin(items, keep)
        new_index = np.full(6, -1)
        new_index[keep] = np.arange(keep.size)
        new_items = new_index[items[chosen]]
        expected = np.lexsort((new_items, users[chosen]))
        subset = response.subset_items(keep).triples
        for got, want in zip(
            subset, (users[chosen], new_items, options[chosen])
        ):
            np.testing.assert_array_equal(got, want[expected])

    def test_subset_users_and_items(self, paper_example_response):
        subset = paper_example_response.subset_users([0, 1]).subset_items([1, 2])
        assert subset.num_users == 2
        assert subset.num_items == 2

    def test_drop_unanswered_items(self):
        choices = np.array([[0, NO_ANSWER], [1, NO_ANSWER]])
        response = ResponseMatrix(choices, num_options=2)
        cleaned = response.drop_unanswered_items()
        assert cleaned.num_items == 1

    def test_equality_and_hash(self, paper_example_response):
        clone = ResponseMatrix(paper_example_response.choices, num_options=3)
        assert clone == paper_example_response
        assert hash(clone) == hash(paper_example_response)
        assert paper_example_response != "not a matrix"


class TestConnectivity:
    def test_connected_example(self, paper_example_response):
        assert paper_example_response.is_connected()
        paper_example_response.require_connected()

    def test_disconnected_components_detected(self):
        # Users {0,1} answer only item 0; users {2,3} answer only item 1.
        choices = np.array(
            [[0, NO_ANSWER], [1, NO_ANSWER], [NO_ANSWER, 0], [NO_ANSWER, 1]]
        )
        response = ResponseMatrix(choices, num_options=2)
        assert not response.is_connected()
        with pytest.raises(DisconnectedGraphError):
            response.require_connected()

    def test_shared_option_connects_users(self):
        choices = np.array([[0, NO_ANSWER], [0, 1]])
        response = ResponseMatrix(choices, num_options=2)
        assert response.is_connected()


class TestScoreAgainstTruth:
    def test_counts_correct_answers(self, paper_example_response):
        scores = score_against_truth(paper_example_response, [2, 2, 2])
        np.testing.assert_array_equal(scores, [0, 1, 1, 2])

    def test_missing_answers_never_count(self):
        response = ResponseMatrix(np.array([[NO_ANSWER, 1]]), num_options=2)
        np.testing.assert_array_equal(score_against_truth(response, [0, 1]), [1])

    def test_wrong_truth_length_rejected(self, paper_example_response):
        with pytest.raises(ValueError):
            score_against_truth(paper_example_response, [1, 2])


class TestResponseMatrixProperties:
    @given(
        num_users=st.integers(min_value=1, max_value=12),
        num_items=st.integers(min_value=1, max_value=8),
        num_options=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_binary_roundtrip_property(self, num_users, num_items, num_options, seed):
        rng = np.random.default_rng(seed)
        choices = rng.integers(0, num_options, size=(num_users, num_items))
        response = ResponseMatrix(choices, num_options=num_options)
        rebuilt = ResponseMatrix.from_binary(response.binary_dense, num_options=num_options)
        assert rebuilt == response

    @given(
        num_users=st.integers(min_value=1, max_value=12),
        num_items=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_binary_row_sums_equal_answer_counts(self, num_users, num_items, seed):
        rng = np.random.default_rng(seed)
        choices = rng.integers(-1, 3, size=(num_users, num_items))
        if np.all(choices == NO_ANSWER):
            choices[0, 0] = 0
        response = ResponseMatrix(choices, num_options=3)
        np.testing.assert_array_equal(
            np.asarray(response.binary.sum(axis=1)).ravel(), response.answers_per_user
        )
