//! Pluggable similarity backends.
//!
//! Everything the classifier does — training-side feature matrices,
//! threshold tuning, and the serving hot path — reduces to one operation:
//! *given a query sample, compute the per-`(view, class)` maximum SSDeep
//! similarity row against the reference set*. [`SimilarityBackend`]
//! abstracts that operation so the execution strategy can be chosen at
//! runtime without touching scores:
//!
//! * [`ScanBackend`] — the original unindexed scan. Every reference hash of
//!   every class is compared with plain [`ssdeep::compare()`], re-normalizing
//!   signatures per comparison. Kept as the verification oracle and the
//!   benchmark baseline.
//! * [`IndexedBackend`] — the prepared block-size-bucketed index built by
//!   [`ReferenceSet`]: only buckets whose block size is compatible with the
//!   query's are visited, and each comparison skips straight to the
//!   edit-distance DP — bounded by the cell's running maximum score, so a
//!   reference that cannot beat the class's best match so far is mostly
//!   rejected before any DP (`ssdeep::compare_prepared_min` over the
//!   bounded `ssdeep::fastdist` kernel). The default.
//! * [`FleetBackend`] — the reference *classes* partitioned across shard
//!   worker processes (`fhc-shardd`, or an `fhc-gateway` front door) behind
//!   persistent sockets, each query's partial rows max-merged, with replicas
//!   raced by hedged requests. The `remote:`, `gateway:` and `fleet:` specs
//!   all build one. See [`crate::shardnet`].
//!
//! All are **score-identical by construction**: they assemble rows from the
//! same per-cell scoring primitives on the same [`ReferenceSet`], differing
//! only in indexing and scheduling. The indexed primitive prunes with each
//! cell's running maximum as a score budget; max-pruning is exact for
//! max-merge (an abandoned comparison could not have changed the cell's
//! maximum), so the fleet — which max-merges disjoint partial rows —
//! inherits the pruning untouched. Seeded equivalence suites (in this
//! module, `tests/integration_backends.rs`, and
//! `tests/integration_remote.rs`) enforce byte-identical rows and
//! predictions.
//!
//! Backend choice is a *runtime* concern like
//! [`ServingConfig`](crate::serving::ServingConfig): it is never persisted,
//! and a stored artifact can be opened under any backend (see
//! [`TrainedClassifier::load_with`](crate::serving::TrainedClassifier::load_with)).
//! Only the fleet can fail after construction (its workers are separate
//! processes); [`SimilarityBackend::try_max_scores_into`] is the
//! fallible twin of `max_scores_into` that surfaces those failures as typed
//! errors instead of panics.

use crate::error::FhcError;
use crate::features::{FeatureKind, PreparedSampleFeatures, SampleFeatures};
use crate::shardnet::{Endpoint, FleetBackend, FleetTopology};
use crate::similarity::ReferenceSet;
use hpcutil::{par_map_indexed, ParallelConfig};
use std::sync::Arc;

/// A strategy for scoring query samples against a [`ReferenceSet`].
///
/// The one required operation is [`SimilarityBackend::max_scores_into`];
/// the row- and matrix-level conveniences are provided on top of it and the
/// metadata accessors delegate to the reference set. Implementations must be
/// pure functions of `(reference set, query)` — two backends over the same
/// reference set must produce byte-identical rows.
pub trait SimilarityBackend: Send + Sync {
    /// The reference set this backend scores against.
    fn reference(&self) -> &ReferenceSet;

    /// Write the similarity row of one prepared query into `out`: for every
    /// active view and every known class, the maximum SSDeep similarity
    /// (scaled to `0.0..=100.0`) of the query against that class's reference
    /// samples, in the reference set's kind-major column order.
    ///
    /// `out` is fully overwritten and its length must equal
    /// [`ReferenceSet::n_columns`].
    fn max_scores_into(&self, query: &PreparedSampleFeatures, out: &mut [f64]);

    /// Fallible twin of [`SimilarityBackend::max_scores_into`].
    ///
    /// In-process backends cannot fail and use this default (delegate and
    /// succeed); backends with external dependencies — remote shard workers
    /// — override it to surface transport failures as typed errors instead
    /// of panicking. Serving paths that must stay up under worker loss
    /// (`TrainedClassifier::try_classify*`) route through this method.
    fn try_max_scores_into(
        &self,
        query: &PreparedSampleFeatures,
        out: &mut [f64],
    ) -> Result<(), FhcError> {
        self.max_scores_into(query, out);
        Ok(())
    }

    /// Number of columns of the rows this backend produces.
    fn n_columns(&self) -> usize {
        self.reference().n_columns()
    }

    /// Known class names, indexed by known-class id.
    fn class_names(&self) -> &[String] {
        self.reference().class_names()
    }

    /// Number of known classes.
    fn n_classes(&self) -> usize {
        self.reference().n_classes()
    }

    /// Active feature kinds.
    fn kinds(&self) -> &[FeatureKind] {
        self.reference().kinds()
    }

    /// Similarity row of one already-prepared query.
    fn feature_vector_prepared(&self, query: &PreparedSampleFeatures) -> Vec<f64> {
        let mut row = vec![0.0; self.n_columns()];
        self.max_scores_into(query, &mut row);
        row
    }

    /// Fallible twin of [`SimilarityBackend::feature_vector_prepared`].
    fn try_feature_vector_prepared(
        &self,
        query: &PreparedSampleFeatures,
    ) -> Result<Vec<f64>, FhcError> {
        let mut row = vec![0.0; self.n_columns()];
        self.try_max_scores_into(query, &mut row)?;
        Ok(row)
    }

    /// Similarity row of one plain sample (prepares it first).
    fn feature_vector(&self, sample: &SampleFeatures) -> Vec<f64> {
        self.feature_vector_prepared(&PreparedSampleFeatures::prepare(sample))
    }

    /// Similarity rows of a batch of prepared queries, computed in parallel
    /// across queries with the given configuration.
    fn feature_matrix_prepared(
        &self,
        queries: &[PreparedSampleFeatures],
        parallel: ParallelConfig,
    ) -> Vec<Vec<f64>> {
        par_map_indexed(queries.len(), parallel, |i| {
            self.feature_vector_prepared(&queries[i])
        })
    }

    /// Similarity rows of a batch of plain samples (each prepared once),
    /// computed in parallel across queries.
    fn feature_matrix(
        &self,
        samples: &[SampleFeatures],
        parallel: ParallelConfig,
    ) -> Vec<Vec<f64>> {
        par_map_indexed(samples.len(), parallel, |i| {
            self.feature_vector(&samples[i])
        })
    }
}

/// The original unindexed oracle: every reference hash of every class is
/// compared with plain [`ssdeep::compare()`], re-normalizing signatures on
/// every comparison.
///
/// Slowest by far, but structurally the simplest possible implementation —
/// the equivalence suites measure every other backend against it.
#[derive(Debug, Clone)]
pub struct ScanBackend {
    reference: Arc<ReferenceSet>,
}

impl ScanBackend {
    /// A scan backend over `reference`.
    pub fn new(reference: Arc<ReferenceSet>) -> Self {
        Self { reference }
    }
}

impl SimilarityBackend for ScanBackend {
    fn reference(&self) -> &ReferenceSet {
        &self.reference
    }

    fn max_scores_into(&self, query: &PreparedSampleFeatures, out: &mut [f64]) {
        let reference = &*self.reference;
        assert_eq!(out.len(), reference.n_columns(), "row width mismatch");
        for (kind_idx, &kind) in reference.kinds().iter().enumerate() {
            // The prepared query owns its original hash, so the scan path
            // costs exactly what it did before preparation existed.
            let hash = query.get(kind).map(|p| p.hash());
            for class in 0..reference.n_classes() {
                let best = hash.map_or(0, |q| reference.cell_score_scan(kind_idx, class, q));
                out[reference.column_index(kind_idx, class)] = f64::from(best);
            }
        }
    }
}

/// The prepared block-size-bucketed index (the default backend): per
/// `(view, class)` cell only the buckets whose block size is compatible with
/// the query's are compared at all.
#[derive(Debug, Clone)]
pub struct IndexedBackend {
    reference: Arc<ReferenceSet>,
}

impl IndexedBackend {
    /// An indexed backend over `reference` (the index itself was built by
    /// [`ReferenceSet::new`] and is shared, not copied).
    pub fn new(reference: Arc<ReferenceSet>) -> Self {
        Self { reference }
    }
}

impl SimilarityBackend for IndexedBackend {
    fn reference(&self) -> &ReferenceSet {
        &self.reference
    }

    fn max_scores_into(&self, query: &PreparedSampleFeatures, out: &mut [f64]) {
        let reference = &*self.reference;
        assert_eq!(out.len(), reference.n_columns(), "row width mismatch");
        reference.max_scores_into_indexed(query, out);
    }
}

/// Deal `0..n_classes` round-robin across `n_shards` lists (class `i` goes
/// to shard `i % n_shards`).
///
/// This is **the** partition rule of the sharded topologies: it is shared
/// by [`FleetBackend`], which deals the classes across its shards in
/// topology order, and by `fhc-shardd --shard i/n` — so a fleet over
/// `--shard` daemons listed in order needs no `Assign` at all.
pub fn round_robin_partition(n_classes: usize, n_shards: usize) -> Vec<Vec<usize>> {
    let n_shards = n_shards.max(1);
    let mut partition: Vec<Vec<usize>> = vec![Vec::new(); n_shards];
    for class in 0..n_classes {
        partition[class % n_shards].push(class);
    }
    partition
}

/// Runtime selection of the similarity backend.
///
/// Part of the unified [`FhcConfig`](crate::config::FhcConfig). Like
/// [`ServingConfig`](crate::serving::ServingConfig) this is a per-process
/// concern: it is never persisted into artifacts, and any stored artifact
/// can be opened under any backend — including a remote topology, where the
/// artifact's scoring is delegated to `fhc-shardd` workers.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum BackendConfig {
    /// The unindexed oracle ([`ScanBackend`]).
    Scan,
    /// The prepared block-size-bucketed index ([`IndexedBackend`]).
    #[default]
    Indexed,
    /// Shard workers behind a transport ([`FleetBackend`]): a
    /// self-healing fleet with replicas, hedged requests, and reference
    /// push. The `remote:` and `gateway:` specs are spellings of a fleet of
    /// replica-less shards that refuses, rather than re-seeds, a worker
    /// holding another artifact
    /// ([`StaleWorkers::Refuse`](crate::shardnet::StaleWorkers::Refuse)).
    Fleet {
        /// The declared topology: shards and their replicas.
        topology: FleetTopology,
        /// The tenant to select on every fleet node; `None` expects the
        /// default tenant.
        tenant: Option<String>,
    },
}

impl BackendConfig {
    /// A fleet of replica-less shards over `endpoints`, in order (default
    /// tenant) — what the `remote:EP[,EP...]` spec parses to.
    pub fn remote(endpoints: impl IntoIterator<Item = Endpoint>) -> Self {
        BackendConfig::Fleet {
            topology: FleetTopology::replica_less(endpoints),
            tenant: None,
        }
    }

    /// Build the selected backend over `reference`.
    ///
    /// Only fleet construction can fail (dialing and validating the worker
    /// handshakes); the in-process backends always succeed.
    pub fn try_build(&self, reference: Arc<ReferenceSet>) -> Result<AnyBackend, FhcError> {
        Ok(match self {
            BackendConfig::Scan => AnyBackend::Scan(ScanBackend::new(reference)),
            BackendConfig::Indexed => AnyBackend::Indexed(IndexedBackend::new(reference)),
            BackendConfig::Fleet { topology, tenant } => AnyBackend::Fleet(
                FleetBackend::connect_tenant(reference, topology.clone(), tenant.as_deref())
                    .map_err(FhcError::Net)?,
            ),
        })
    }

    /// Build the selected backend over `reference`, panicking if a fleet
    /// cannot be connected (use [`BackendConfig::try_build`] to
    /// handle that case).
    pub fn build(&self, reference: Arc<ReferenceSet>) -> AnyBackend {
        self.try_build(reference)
            .unwrap_or_else(|e| panic!("failed to build backend {self}: {e}"))
    }
}

impl std::fmt::Display for BackendConfig {
    /// The canonical spec: parsing it gives back an equal configuration.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendConfig::Scan => f.write_str("scan"),
            BackendConfig::Indexed => f.write_str("indexed"),
            BackendConfig::Fleet { topology, tenant } => {
                write!(f, "fleet:{topology}")?;
                if let Some(tenant) = tenant {
                    write!(f, ";tenant={tenant}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::str::FromStr for BackendConfig {
    type Err = String;

    /// Parse a command-line backend spec: `scan`, `indexed`,
    /// `fleet:EP[;replica=EP[,EP...]][;EP...]`, or one of its two
    /// replica-less spellings — `remote:EP[,EP...]` (one shard per
    /// endpoint, in order) and `gateway:EP` (one shard owning every class).
    /// Endpoints are as accepted by `Endpoint` parsing (`tcp:HOST:PORT`,
    /// `HOST:PORT`, `unix:PATH`).
    ///
    /// The networked specs accept a `;tenant=NAME` item anywhere in their
    /// `;`-separated payload — `remote:h:9000;tenant=acme`,
    /// `gateway:h:7000;tenant=acme`,
    /// `fleet:h:9000;replica=h:9100;tenant=acme` — selecting that tenant
    /// on every handshake. Without it the default tenant is expected.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "scan" => return Ok(BackendConfig::Scan),
            "indexed" => return Ok(BackendConfig::Indexed),
            _ => {}
        }
        if let Some(list) = s.strip_prefix("remote:") {
            let (rest, tenant) = split_tenant(list)?;
            let endpoints = rest
                .split(',')
                .map(|e| e.trim().parse::<Endpoint>())
                .collect::<Result<Vec<_>, _>>()?;
            return Ok(BackendConfig::Fleet {
                topology: FleetTopology::replica_less(endpoints),
                tenant,
            });
        }
        if let Some(spec) = s.strip_prefix("gateway:") {
            let (rest, tenant) = split_tenant(spec)?;
            let endpoint = rest.trim().parse::<Endpoint>()?;
            return Ok(BackendConfig::Fleet {
                topology: FleetTopology::replica_less([endpoint]),
                tenant,
            });
        }
        if let Some(spec) = s.strip_prefix("fleet:") {
            let (rest, tenant) = split_tenant(spec)?;
            let topology = rest.trim().parse::<FleetTopology>()?;
            return Ok(BackendConfig::Fleet { topology, tenant });
        }
        Err(format!(
            "unknown backend {s:?}: expected scan, indexed, \
             remote:EP[,EP...], gateway:EP, or \
             fleet:EP[;replica=EP[,EP...]][;EP...], \
             each optionally with ;tenant=NAME"
        ))
    }
}

/// Extract one `tenant=NAME` item from a `;`-separated backend payload,
/// returning the payload with the item removed and the validated name.
/// More than one `tenant=` item, or a malformed name, is an error.
fn split_tenant(payload: &str) -> Result<(String, Option<String>), String> {
    let mut tenant: Option<String> = None;
    let mut rest: Vec<&str> = Vec::new();
    for item in payload.split(';') {
        if let Some(name) = item.trim().strip_prefix("tenant=") {
            if tenant.is_some() {
                return Err("tenant= may appear at most once in a backend spec".into());
            }
            if !crate::shardnet::wire::valid_tenant(name) {
                return Err(format!(
                    "invalid tenant {name:?}: want 1..={} characters of [A-Za-z0-9._-]",
                    crate::shardnet::wire::MAX_TENANT_LEN
                ));
            }
            tenant = Some(name.to_string());
        } else {
            rest.push(item);
        }
    }
    Ok((rest.join(";"), tenant))
}

/// A concrete backend chosen at runtime — the closed set of
/// [`SimilarityBackend`] implementations a [`BackendConfig`] can build,
/// stored inline (clonable, no boxing) by
/// [`TrainedClassifier`](crate::serving::TrainedClassifier).
#[derive(Debug, Clone)]
pub enum AnyBackend {
    /// The unindexed oracle.
    Scan(ScanBackend),
    /// The prepared index (default).
    Indexed(IndexedBackend),
    /// Shard workers behind a transport: a self-healing, replicated fleet.
    Fleet(FleetBackend),
}

impl AnyBackend {
    /// The configuration that (re)builds this backend.
    pub fn config(&self) -> BackendConfig {
        match self {
            AnyBackend::Scan(_) => BackendConfig::Scan,
            AnyBackend::Indexed(_) => BackendConfig::Indexed,
            AnyBackend::Fleet(b) => BackendConfig::Fleet {
                topology: b.topology(),
                tenant: b.tenant().map(str::to_string),
            },
        }
    }

    /// Whether this backend scores through a transport where batching
    /// changes the wire shape: a whole batch travels in few
    /// `ScoreBatchRequest` frames instead of one round trip per query.
    pub fn scores_batches_remotely(&self) -> bool {
        matches!(self, AnyBackend::Fleet(_))
    }

    /// Compute one dense similarity row per query, in query order.
    ///
    /// The fleet ships the whole batch through its batched wire path
    /// (chunked to the frame budget); in-process backends score per
    /// query — they have no round trips to amortize. Like the other `try_*`
    /// APIs, the batch either scores completely or the first failure is
    /// returned.
    pub fn try_feature_rows_prepared(
        &self,
        queries: &[PreparedSampleFeatures],
    ) -> Result<Vec<Vec<f64>>, FhcError> {
        match self {
            AnyBackend::Fleet(b) => Ok(b.try_feature_rows_prepared(queries)?),
            _ => queries
                .iter()
                .map(|q| self.try_feature_vector_prepared(q))
                .collect(),
        }
    }

    /// The backend as a trait object (for code that is generic over
    /// backends without being generic over this enum).
    pub fn as_dyn(&self) -> &dyn SimilarityBackend {
        match self {
            AnyBackend::Scan(b) => b,
            AnyBackend::Indexed(b) => b,
            AnyBackend::Fleet(b) => b,
        }
    }
}

impl SimilarityBackend for AnyBackend {
    fn reference(&self) -> &ReferenceSet {
        self.as_dyn().reference()
    }

    fn max_scores_into(&self, query: &PreparedSampleFeatures, out: &mut [f64]) {
        self.as_dyn().max_scores_into(query, out);
    }

    fn try_max_scores_into(
        &self,
        query: &PreparedSampleFeatures,
        out: &mut [f64],
    ) -> Result<(), FhcError> {
        self.as_dyn().try_max_scores_into(query, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shardnet::{FleetShard, StaleWorkers};
    use binary::elf::ElfBuilder;
    use std::net::TcpListener;

    fn make_sample(class_tag: &str, variant: u64) -> SampleFeatures {
        let mut b = ElfBuilder::new();
        let mut code: Vec<u8> = class_tag
            .bytes()
            .cycle()
            .take(24_000)
            .enumerate()
            .map(|(i, c)| c.wrapping_mul(17).wrapping_add((i / 96) as u8))
            .collect();
        for (i, byte) in code
            .iter_mut()
            .skip((variant as usize * 512) % 20_000)
            .take(256)
            .enumerate()
        {
            *byte ^= (variant as u8).wrapping_add(i as u8);
        }
        b.add_text_section(code);
        b.add_rodata_section(
            format!("{class_tag} tool messages and usage\0v{variant}\0").into_bytes(),
        );
        for i in 0..30 {
            b.add_global_function(&format!("{class_tag}_routine_{i}"), (i * 128) as u64, 128);
        }
        b.add_global_function(&format!("{class_tag}_extra_{variant}"), 30 * 128, 64);
        SampleFeatures::extract(&b.build())
    }

    fn reference(n_classes: usize) -> Arc<ReferenceSet> {
        let tags = ["velvet", "openmalaria", "gromacs", "lammps", "quantum"];
        let mut train = Vec::new();
        let mut labels = Vec::new();
        for class in 0..n_classes {
            for variant in 0..2 {
                train.push(make_sample(tags[class % tags.len()], variant));
                labels.push(class);
            }
        }
        Arc::new(ReferenceSet::new(
            (0..n_classes).map(|c| format!("class-{c}")).collect(),
            &train,
            &labels,
            &FeatureKind::ALL,
        ))
    }

    fn probes() -> Vec<PreparedSampleFeatures> {
        [
            make_sample("velvet", 0),
            make_sample("velvet", 9),
            make_sample("gromacs", 4),
            make_sample("stranger", 1),
        ]
        .iter()
        .map(PreparedSampleFeatures::prepare)
        .collect()
    }

    /// A `remote:` fleet over `n` in-process loopback workers, each loaded
    /// with every class of `rs` (the fleet deals the partition).
    fn fleet_config(rs: &Arc<ReferenceSet>, n: usize) -> BackendConfig {
        BackendConfig::remote((0..n).map(|_| {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback worker");
            let endpoint = Endpoint::Tcp(listener.local_addr().unwrap().to_string());
            let worker = Arc::new(crate::shardnet::ShardWorker::all_classes(Arc::clone(rs)));
            std::thread::spawn(move || crate::shardnet::worker::serve_tcp(worker, listener));
            endpoint
        }))
    }

    #[test]
    fn all_backends_agree_on_every_probe() {
        let rs = reference(4);
        let scan = ScanBackend::new(rs.clone());
        let indexed = IndexedBackend::new(rs.clone());
        for shards in [1, 2, 3, rs.n_classes(), rs.n_classes() + 2] {
            let fleet = fleet_config(&rs, shards).build(rs.clone());
            for probe in &probes() {
                let expected = scan.feature_vector_prepared(probe);
                assert_eq!(indexed.feature_vector_prepared(probe), expected);
                assert_eq!(
                    fleet.feature_vector_prepared(probe),
                    expected,
                    "a fleet of {shards} diverged"
                );
            }
        }
    }

    #[test]
    fn backends_agree_with_reference_set_paths() {
        let rs = reference(3);
        let indexed = IndexedBackend::new(rs.clone());
        let scan = ScanBackend::new(rs.clone());
        for probe in &probes() {
            let plain = probe.to_sample_features();
            assert_eq!(
                indexed.feature_vector_prepared(probe),
                rs.feature_vector(&plain)
            );
            assert_eq!(
                scan.feature_vector_prepared(probe),
                rs.feature_vector_scan(&plain)
            );
        }
    }

    #[test]
    fn sharded_partition_covers_every_class_exactly_once() {
        for n_classes in [0, 1, 5] {
            for shards in [1, 2, 3, 5, 9] {
                let partition = round_robin_partition(n_classes, shards);
                assert_eq!(partition.len(), shards);
                let mut seen = vec![0usize; n_classes];
                for classes in &partition {
                    for &class in classes {
                        seen[class] += 1;
                    }
                }
                assert!(seen.iter().all(|&n| n == 1), "partition must be exact");
            }
        }
        // A live fleet's members hold exactly this partition, in topology
        // order.
        let rs = reference(5);
        let AnyBackend::Fleet(fleet) = fleet_config(&rs, 3).build(rs) else {
            panic!("remote: builds a fleet");
        };
        let members: Vec<Vec<usize>> = fleet
            .view()
            .members()
            .iter()
            .map(|m| m.classes().to_vec())
            .collect();
        assert_eq!(members, round_robin_partition(5, 3));
    }

    #[test]
    fn empty_class_scores_zero_under_every_backend() {
        // A class with no reference samples (legal for an in-memory
        // ReferenceSet) must produce all-zero columns everywhere.
        let train = vec![make_sample("velvet", 0), make_sample("velvet", 1)];
        let rs = Arc::new(ReferenceSet::new(
            vec!["Velvet".into(), "Empty".into()],
            &train,
            &[0, 0],
            &FeatureKind::ALL,
        ));
        let probe = PreparedSampleFeatures::prepare(&make_sample("velvet", 2));
        let scan_row = BackendConfig::Scan
            .build(rs.clone())
            .feature_vector_prepared(&probe);
        for config in [
            BackendConfig::Scan,
            BackendConfig::Indexed,
            fleet_config(&rs, 2),
        ] {
            let row = config.build(rs.clone()).feature_vector_prepared(&probe);
            assert_eq!(row.len(), rs.n_columns());
            for kind_idx in 0..rs.kinds().len() {
                assert_eq!(row[kind_idx * 2 + 1], 0.0, "empty class under {config}");
            }
            assert_eq!(row, scan_row, "{config} diverged from the scan oracle");
        }
    }

    #[test]
    fn single_class_reference_works_under_every_backend() {
        let train = vec![make_sample("velvet", 0)];
        let rs = Arc::new(ReferenceSet::new(
            vec!["Velvet".into()],
            &train,
            &[0],
            &FeatureKind::ALL,
        ));
        let probe = PreparedSampleFeatures::prepare(&train[0]);
        let expected = BackendConfig::Scan
            .build(rs.clone())
            .feature_vector_prepared(&probe);
        assert_eq!(expected[0], 100.0);
        // Four shards over one class: three serve empty partitions.
        for config in [
            BackendConfig::Indexed,
            fleet_config(&rs, 1),
            fleet_config(&rs, 4),
        ] {
            assert_eq!(
                config.build(rs.clone()).feature_vector_prepared(&probe),
                expected
            );
        }
    }

    #[test]
    fn matrix_helpers_match_row_helpers() {
        let rs = reference(3);
        let backend = fleet_config(&rs, 2).build(rs);
        let prepared = probes();
        let plain: Vec<SampleFeatures> = prepared
            .iter()
            .map(PreparedSampleFeatures::to_sample_features)
            .collect();
        let parallel = ParallelConfig::with_threads(2).with_chunk(1);
        let from_prepared = backend.feature_matrix_prepared(&prepared, parallel);
        let from_plain = backend.feature_matrix(&plain, parallel);
        assert_eq!(from_prepared, from_plain);
        for (i, row) in from_prepared.iter().enumerate() {
            assert_eq!(*row, backend.feature_vector_prepared(&prepared[i]));
        }
        assert_eq!(
            backend
                .try_feature_rows_prepared(&prepared)
                .expect("batched rows"),
            from_prepared
        );
    }

    #[test]
    fn backend_config_display_names_are_stable() {
        assert_eq!(BackendConfig::Scan.to_string(), "scan");
        assert_eq!(BackendConfig::Indexed.to_string(), "indexed");
        assert_eq!(
            BackendConfig::remote([
                Endpoint::Tcp("127.0.0.1:9000".into()),
                Endpoint::Unix("/tmp/fhc.sock".into()),
            ])
            .to_string(),
            "fleet:tcp:127.0.0.1:9000;unix:/tmp/fhc.sock;stale=refuse"
        );
        assert_eq!(
            BackendConfig::Fleet {
                topology: "h1:9000;replica=h1:9100;h2:9000".parse().unwrap(),
                tenant: None,
            }
            .to_string(),
            "fleet:tcp:h1:9000;replica=tcp:h1:9100;tcp:h2:9000"
        );
        assert_eq!(
            "gateway:127.0.0.1:7000;tenant=acme"
                .parse::<BackendConfig>()
                .unwrap()
                .to_string(),
            "fleet:tcp:127.0.0.1:7000;stale=refuse;tenant=acme"
        );
        assert_eq!(BackendConfig::default(), BackendConfig::Indexed);
    }

    #[test]
    fn backend_config_parses_from_str() {
        assert_eq!(
            "scan".parse::<BackendConfig>().unwrap(),
            BackendConfig::Scan
        );
        assert_eq!(
            "indexed".parse::<BackendConfig>().unwrap(),
            BackendConfig::Indexed
        );
        // `remote:` is a fleet of replica-less shards in the listed order
        // that refuses a worker holding another artifact.
        assert_eq!(
            "remote:127.0.0.1:9000,unix:/tmp/w.sock"
                .parse::<BackendConfig>()
                .unwrap(),
            BackendConfig::Fleet {
                topology: FleetTopology {
                    stale: StaleWorkers::Refuse,
                    ..FleetTopology::new(vec![
                        FleetShard::solo(Endpoint::Tcp("127.0.0.1:9000".into())),
                        FleetShard::solo(Endpoint::Unix("/tmp/w.sock".into())),
                    ])
                },
                tenant: None,
            }
        );
        // `gateway:` is a one-shard fleet.
        assert_eq!(
            "gateway:127.0.0.1:7000".parse::<BackendConfig>().unwrap(),
            BackendConfig::remote([Endpoint::Tcp("127.0.0.1:7000".into())])
        );
        assert_eq!(
            "fleet:127.0.0.1:9000;replica=127.0.0.1:9100;unix:/tmp/w.sock"
                .parse::<BackendConfig>()
                .unwrap(),
            BackendConfig::Fleet {
                topology: FleetTopology::new(vec![
                    FleetShard {
                        primary: Endpoint::Tcp("127.0.0.1:9000".into()),
                        replicas: vec![Endpoint::Tcp("127.0.0.1:9100".into())],
                    },
                    FleetShard::solo(Endpoint::Unix("/tmp/w.sock".into())),
                ]),
                tenant: None,
            }
        );
        // Display forms reparse to the same configuration.
        for config in [
            BackendConfig::Scan,
            BackendConfig::Indexed,
            BackendConfig::remote([Endpoint::Tcp("h:1".into()), Endpoint::Tcp("h:4".into())]),
            BackendConfig::Fleet {
                topology: "h:1;replica=h:2;h:3;hedge_ms=5,1,40".parse().unwrap(),
                tenant: None,
            },
            "gateway:h:7;tenant=acme".parse().unwrap(),
        ] {
            assert_eq!(config.to_string().parse::<BackendConfig>().unwrap(), config);
        }
        for bad in [
            "bogus",
            "sharded",
            "sharded:2",
            "remote:",
            "remote:nonsense",
            "remote:h:1,,h:2",
            "gateway:",
            "fleet:",
            "fleet:replica=h:1",
            "fleet:h:1;;h:2",
        ] {
            assert!(bad.parse::<BackendConfig>().is_err(), "{bad:?} must fail");
        }
        // The removed `sharded` spec is refused with the accepted list.
        let err = "sharded:4".parse::<BackendConfig>().unwrap_err();
        for accepted in ["scan", "indexed", "remote:", "gateway:", "fleet:"] {
            assert!(err.contains(accepted), "{err:?} must list {accepted}");
        }
    }

    #[test]
    fn backend_config_tenant_selector_parses_and_round_trips() {
        // tenant= may sit anywhere in the `;`-separated payload.
        let remote = "remote:127.0.0.1:9000;tenant=acme"
            .parse::<BackendConfig>()
            .unwrap();
        assert_eq!(
            remote,
            BackendConfig::Fleet {
                topology: "127.0.0.1:9000;stale=refuse".parse().unwrap(),
                tenant: Some("acme".into()),
            }
        );
        let gateway = "gateway:tenant=acme;127.0.0.1:9000"
            .parse::<BackendConfig>()
            .unwrap();
        assert_eq!(gateway, remote);
        let fleet = "fleet:h:1;replica=h:2;tenant=org.lab-7;h:3"
            .parse::<BackendConfig>()
            .unwrap();
        assert_eq!(
            fleet,
            BackendConfig::Fleet {
                topology: "h:1;replica=h:2;h:3".parse().unwrap(),
                tenant: Some("org.lab-7".into()),
            }
        );
        // Display forms with tenants reparse to the same configuration.
        for config in [remote, fleet] {
            assert_eq!(config.to_string().parse::<BackendConfig>().unwrap(), config);
        }
        // Malformed or duplicated tenants are rejected with a clear message.
        for bad in [
            "remote:h:1;tenant=",
            "remote:h:1;tenant=has space",
            "remote:h:1;tenant=a;tenant=b",
            "gateway:h:1;tenant=semi;colon",
            "fleet:h:1;tenant=\u{e9}clair",
        ] {
            let err = bad.parse::<BackendConfig>().unwrap_err();
            assert!(
                err.contains("tenant") || err.contains("endpoint"),
                "{bad:?} must fail mentioning the tenant or endpoint: {err}"
            );
        }
        let overlong = format!("remote:h:1;tenant={}", "t".repeat(65));
        assert!(overlong.parse::<BackendConfig>().is_err());
    }

    #[test]
    fn round_robin_partition_is_exact_and_stable() {
        assert_eq!(round_robin_partition(5, 2), vec![vec![0, 2, 4], vec![1, 3]]);
        assert_eq!(round_robin_partition(2, 5).len(), 5);
        assert_eq!(round_robin_partition(0, 3), vec![vec![], vec![], vec![]]);
        // Zero shards clamps to one.
        assert_eq!(round_robin_partition(3, 0), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn sharded_scores_identically_inside_parallel_workers() {
        // Batch workers share one fleet's connections; every row must stay
        // byte-identical to the serial path.
        let rs = reference(4);
        let fleet = fleet_config(&rs, 2).build(rs.clone());
        let probes = probes();
        let direct: Vec<Vec<f64>> = probes
            .iter()
            .map(|p| fleet.feature_vector_prepared(p))
            .collect();
        // Force the threaded batch path with one probe per worker step.
        let via_batch = fleet.feature_matrix_prepared(
            &probes,
            ParallelConfig {
                threads: 2,
                chunk: 1,
            },
        );
        assert_eq!(via_batch, direct);
        let scan = ScanBackend::new(rs);
        for (probe, row) in probes.iter().zip(&direct) {
            assert_eq!(*row, scan.feature_vector_prepared(probe));
        }
    }

    #[test]
    fn try_paths_succeed_for_in_process_backends() {
        let rs = reference(3);
        let probe = &probes()[0];
        for config in [BackendConfig::Scan, BackendConfig::Indexed] {
            let backend = config
                .try_build(rs.clone())
                .expect("in-process backends build");
            let row = backend
                .try_feature_vector_prepared(probe)
                .expect("in-process backends cannot fail");
            assert_eq!(row, backend.feature_vector_prepared(probe));
        }
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_row_width_panics() {
        let rs = reference(2);
        let backend = IndexedBackend::new(rs);
        let probe = probes().remove(0);
        let mut out = vec![0.0; 1];
        backend.max_scores_into(&probe, &mut out);
    }
}
