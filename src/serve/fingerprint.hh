/**
 * @file
 * Matrix identity fingerprints for the serving layer.
 *
 * The plan cache (serve/plan_cache.hh) keys transformed plans by the
 * *content* of the operand matrices, not by object identity, so two
 * clients submitting the same A hit one cached plan. Digests are
 * 64-bit hashes over 64-bit words: words are dealt round-robin to
 * four independent multiply-mix lanes (8 bytes per step, and the
 * lanes' multiplies overlap in the pipeline), the lanes merge with
 * the total length, and a splitmix64 finalizer gives every output bit
 * full avalanche — so digests can key a consistent-hash ring
 * (cluster/router.hh) as they are. There is no seed: a digest has
 * the same value in every process and on every host.
 *
 * A matrix's digest is defined over the words [rows, cols, bit
 * pattern of each element, row-major] — exactly the layout
 * WireWriter::dense puts on the wire (net/protocol.hh), so a digest
 * can be taken straight from SUBMIT bytes (fingerprintWords) without
 * decoding them, and equals fingerprintDense of the decoded matrix.
 *
 * Digests are an index, not a proof — the cache always confirms a
 * digest match bit for bit against the cached plan itself
 * (PreparedPlan::builtFrom(), serve/plan_cache.hh), so a hash
 * collision costs a probe, never a wrong plan.
 */

#ifndef SAP_SERVE_FINGERPRINT_HH
#define SAP_SERVE_FINGERPRINT_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "base/types.hh"
#include "mat/dense.hh"
#include "mat/vector.hh"

namespace sap {

/** 64-bit content digest. */
using Digest = std::uint64_t;

/** Digest of the words [rows, cols, element bit patterns] of @p a. */
Digest fingerprintDense(const Dense<Scalar> &a);

/** Digest of the words [length, element bit patterns] of @p v. */
Digest fingerprintVec(const Vec<Scalar> &v);

/**
 * Digest of @p count little-endian 64-bit words at @p bytes. Over a
 * Dense operand as WireWriter::dense encoded it (16 + 8·rows·cols
 * bytes) this equals fingerprintDense of the decoded matrix.
 */
Digest fingerprintWords(const std::uint8_t *bytes, std::size_t count);

/** Digest of the bytes of @p s (little-endian words plus a tail). */
Digest fingerprintString(const std::string &s);

/** Order-dependent combination of two digests (not finalized). */
Digest combineDigests(Digest seed, Digest next);

/** The splitmix64 finalizer every fingerprint ends with: a bijection
 *  with full avalanche, for values built by combineDigests. */
Digest finalizeDigest(Digest x);

/**
 * Injectable dense-matrix hash, so tests can force collisions and
 * verify that the cache disambiguates distinct matrices.
 */
using DenseHashFn = std::function<Digest(const Dense<Scalar> &)>;

} // namespace sap

#endif // SAP_SERVE_FINGERPRINT_HH
