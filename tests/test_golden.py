"""Golden digests at sampling rates below 1.

Cross-mode tests cannot see a drift that every mode shares, such as a float
sum taken in another order.  These digests pin the outputs of seeded builds
and part estimates to the values of the dict-based decision path that
summed each part left to right, so a change of order, of rounding or of
gates shows here:

* builds at Delta = 8 and scales 1e-53 and 1e-57 with both count modes: at
  1e-57 with exact counts phi is 1/1.4333 at the finest level, so weights
  are not integers; with sampled counts every guess FAILs and the all-FAIL
  text is pinned.  Offline, stream and dist give the one digest.
* the part estimates of sampled banks at scale 1e-19, where psi' is
  1/1.0596, 1/4.2386, 1/16.9542 or 1/67.8168 at some levels, over the
  marking of exact counts: every estimate is a non-integer.
* the files of CLI ``assign``, with and without ``--full-input``, their
  ``% cost=`` and ``% size_vector=`` lines included, for r in {1, 2, 3}, k
  in {1, 2, 3} and seeds 1-3 at Delta 8 and 256 (d = 2) and at Delta 2^40
  (d = 1), where squared distances times FLOW_SCALE pass 2^63; and three
  runs with clusters of 0.6, 0.3 and 0.1 of n, where the capacity
  t = ceil(1.1 n / k) binds.  They were taken from the per-point
  reconstruction, before the dist^r table.
* the CSVs of CLI ``eval`` for k in {2, 3, 4} and r in {1, 2, 3}: over
  unit-weight coresets (the default scale keeps every point), at Delta 8
  and at Delta 256 with r = 3, where dist^r on the 2^40 scale passes 2^63;
  and over coresets with non-integer weights (scale 1e-57 or 1e-60 with
  exact counts), with --t-grid full and --include-rounded.  The inputs
  repeat coordinates under distinct tags.  They were taken from the oracle
  that solved one transportation problem per (Z, t) pair, before CostCurve
  set each pair up once.
"""

import hashlib
import math
import random

import pytest

from capacore import assignment, coreset, oracle
from capacore.cli import main
from capacore.common import derive_seed
from capacore.coreset import OfflineBuilder, build_auto, dedup_points
from capacore.distributed import run_protocol
from capacore.estimator import ExactBank, SampleBank
from capacore.geometry import GridHierarchy, Point, write_points
from capacore.params import PRACTICAL, derive
from capacore.partition import mark_cells
from capacore.streaming import StreamEngine

from conftest import clustered_points, part_taus

DELTA = 8

# (scale, exact_counts, seed) -> sha256 of the build (_digest)
BUILDS = {
    (1e-53, False, 1): '8a2c2aaddf3f9e5ebbfa9436a96ea14cd303f45e5f4649d47e179ace97f58a98',
    (1e-53, False, 2): '8a2c2aaddf3f9e5ebbfa9436a96ea14cd303f45e5f4649d47e179ace97f58a98',
    (1e-53, False, 3): '8a2c2aaddf3f9e5ebbfa9436a96ea14cd303f45e5f4649d47e179ace97f58a98',
    (1e-53, True, 1): 'dd4ea8d911779438676e6e8b96d10c0cc2eea944b5458f976f48ba478675c5f6',
    (1e-53, True, 2): 'd837052d5ef2a7404f7ba3a875e84736bb209af504cdb9cf8b58b741ccecd726',
    (1e-53, True, 3): 'c4936c0e8d224c50b8df964d2a71eb9635ee0ad7e8075bc2af8f8c4f61cc8d75',
    (1e-57, False, 1): '8a2c2aaddf3f9e5ebbfa9436a96ea14cd303f45e5f4649d47e179ace97f58a98',
    (1e-57, False, 2): '8a2c2aaddf3f9e5ebbfa9436a96ea14cd303f45e5f4649d47e179ace97f58a98',
    (1e-57, False, 3): '8a2c2aaddf3f9e5ebbfa9436a96ea14cd303f45e5f4649d47e179ace97f58a98',
    (1e-57, True, 1): 'e5d4d79443b014d132a75d26cf0fb19f5c58b41f1899f37a6ed65a66ac4bc016',
    (1e-57, True, 2): '07b74abdc60945a215e5e63e581cf8b904a90b5f76681cdb4845d3c058e576d0',
    (1e-57, True, 3): '6fa08934277a0fafa67bc2a8eb02b5bef124a69b077f3b88c4972fe5c3871ea7',
}

# (seed, o) -> sha256 of the part estimates at scale 1e-19 (sampled counts)
ESTIMATES = {
    (1, 64): '575c8eaac760b06d19ffb08bd03a49c1d30cc35ab06ad9c8c744c38252e3b750',
    (1, 256): '61978c1bffe99431ef77a56b98f8e69079b74bbd7a6016707840e3ea7b588762',
    (1, 1024): '03648cadee0adcccba2f78b82e2fdb52addeac39b2ecfcc10496ca860d85a2a9',
    (2, 64): '8961fabf1522ca7c140f6a2ded0e11f56104073d1c7fc40486f092138c68f9bf',
    (2, 256): 'dbd39cfa6f20b28fdc6c4a382b58160a741599456e74e02715b162c3b560c707',
    (2, 1024): 'f71ff1ff35b5ad17ee7542b1782da2ee1b24eb6d4847503a8e9fada699528bdf',
    (3, 64): '18fa8eab9af54c021872b5bc072baa8ae551baf73b8ee61f2055abe69bdd86ef',
    (3, 256): '809fce35e465b17e5331972a2b79755951b365d2edfafa3c05032cf252b21e00',
    (3, 1024): '5984e19833a646e5cae4ffe7174e796449a496477348c90dc6fab005634c06da',
}


def _params(scale):
    return derive(k=2, r=2, eps=0.4, eta=0.4, Delta=DELTA, d=2,
                  mode=PRACTICAL, scale=scale)


def _points(seed, n):
    return dedup_points(clustered_points(random.Random(f"golden:{seed}"), n,
                                         DELTA, clusters=2, spread=1.5))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _digest(build) -> str:
    """The digest of a coreset (its canonical() entries, o and shift, its
    part_tau and its heavy cells), or of the all-FAIL error build raises."""
    try:
        core = build()
    except RuntimeError as err:
        return _sha(str(err))
    meta = core.meta
    return _sha(repr((core.canonical(), sorted(meta.part_tau.items()),
                      sorted((lvl, sorted(cells)) for lvl, cells
                             in meta.structure.heavy.items()))))


@pytest.mark.parametrize("scale,exact_counts,seed", sorted(BUILDS))
def test_builds_match_their_golden_digest(scale, exact_counts, seed):
    params = _params(scale)
    pts = _points(seed, 40)
    grid = GridHierarchy.from_seed(derive_seed(seed, "shift"), DELTA, 2)

    def stream():
        engine = StreamEngine(params, grid, seed, exact_counts=exact_counts,
                              n_max=len(pts))
        engine.process_stream((p, +1) for p in pts)
        return engine.finalize()

    builds = {
        "offline": lambda: build_auto(pts, grid, params, seed,
                                      exact_counts=exact_counts),
        "stream": stream,
        "dist": lambda: run_protocol([pts[i::3] for i in range(3)], params,
                                     seed, exact_counts=exact_counts)[0],
    }
    for mode, build in builds.items():
        assert _digest(build) == BUILDS[(scale, exact_counts, seed)], mode


@pytest.mark.parametrize("seed,o", sorted(ESTIMATES))
def test_part_estimates_match_their_golden_digest(seed, o):
    params = _params(1e-19)
    pts = _points(seed, 300)
    grid = GridHierarchy.from_seed(derive_seed(seed, "shift"), DELTA, 2)
    builder = OfflineBuilder(pts, grid, params, seed, exact_counts=False)
    data = {(fam, lvl): builder._cell_data(builder.sampling.key(fam, lvl, o))
            for fam in ("h", "hp") for lvl in range(0, grid.L + 1)}
    bank = SampleBank.build(builder.sampling, o, data)
    assert any(0 < rate < 1 for rate in bank.psi_prime.values())
    structure = mark_cells(ExactBank(pts, grid).counts_for_marking(), params,
                           o, grid)
    union, parts = bank.part_estimates(structure)
    parts = part_taus(parts)
    assert parts and all(tau != int(tau) for tau in parts.values())
    assert _sha(repr((sorted(union.items()), sorted(parts.items())))) == \
        ESTIMATES[(seed, o)]


# (Delta, d, r, k, seed, cluster shares) -> sha256 of the assign files
# (_assign_digests): the coreset alone, then with --full-input
EVEN = (1 / 3, 1 / 3, 1 / 3)
UNEVEN = (0.6, 0.3, 0.1)
ASSIGNS = {
    (8, 2, 1, 1, 1, EVEN): (
        '8d5aa11637ef0023d8ab1f838e29fdd885e4812a00322a01b34e6eb71e8bcdd6',
        '94756b5bec6c962a68aba390b90a788f6e3a031eaf39a39854a56d165efb8e74'),
    (8, 2, 1, 1, 2, EVEN): (
        '056b40a32a11f9c2ca31ce3b78fe50558242b7726028b397ff37c4099a61eaf6',
        '5d4f3ec4806b96b3b51524b72dfa25010c60db182c579e9fa841a2299037f3ef'),
    (8, 2, 1, 1, 3, EVEN): (
        '0a5226b06b3295a10f4fed059ef4478a42233d55275bde740b18082f53f85d86',
        'ce75638249f9f3a250a68c60a32aad6685babb63cdfc70d2a5198d66441e5ced'),
    (8, 2, 1, 2, 1, EVEN): (
        '8774d55c3b83b11a9643b9ff358c962cc25527bd11b69aab12d6569afa810404',
        '62af4a78d0d0e6b6646fc2d8dc74b50a4e903c86b9cf876b1f88c7bde0a22aec'),
    (8, 2, 1, 2, 2, EVEN): (
        'a3ec6445f34fcfd0e1c91adb08bf6850573a83a4d955549de3240333d9711c12',
        'dd78f259fe4b83daed22342604792ae165d30bd57fd1a38331e7584fc41de245'),
    (8, 2, 1, 2, 3, EVEN): (
        '694baeb664a979977a975579ae37fab6088af0690ee890b1e19bf365081ac965',
        '62a5599fb85909a56309fb85810fd5e3ffe943d4a45c9c6520b5f670061b4780'),
    (8, 2, 1, 3, 1, EVEN): (
        '6288860b9417aca84f81f4a7c7d6aaf3d758ed7b0bf1322c7859533e070ce85e',
        'f3cb908c12aea916f5072d377f5ef4c38a054d111880a2f5fce1e2c130d796fc'),
    (8, 2, 1, 3, 2, EVEN): (
        '086c08d8522956e5d6f10fddd4ddf5d6547c53bcc16ef5c38148a6a0d01c9fe3',
        'ce3bb85a6e59b0dbed8bbc202b50661135928e0921711e905b4694acc096c494'),
    (8, 2, 1, 3, 3, EVEN): (
        'e5b06b8a7efda5512be529dca6e3dbf7ae368b278e47279ea33d9d72b3e70549',
        'e39e4b64dd00ade545029599d545a68b6ef3abb0f0cfa3b3ae9e45cdca632ddf'),
    (8, 2, 2, 1, 1, EVEN): (
        '5272a9cf6d600b3496aba440635a4c285a5e1074b4676f0dc8012fc7a4ee40af',
        '27a54c75e9566229f9004da17145026aff619b2a4578156f75f7672c367a9c63'),
    (8, 2, 2, 1, 2, EVEN): (
        'd0f18988fe79ad440a1942af58053c2504ca2600f7886eda46d99da42583b911',
        'ebc5ba3d18e307e166b3a0783b0af302b5fdef401b0446532bfa4c1e3b5e303c'),
    (8, 2, 2, 1, 3, EVEN): (
        '007ec42f9ba5f81a09dd084fe45b5aa8a50414d3c57ee29f9b6535a082e3e39d',
        'e7be84a78600427a2e17db0dc203f23f9c77af09794e33615ae83eb1aee32e76'),
    (8, 2, 2, 2, 1, EVEN): (
        '112b2fe41d755e55accd5065df9666018f09c46e498c27e542415748393204ae',
        'ad31bf1c29165009583f7779eda775d1686a23e85225ca81235f21f2673aed67'),
    (8, 2, 2, 2, 2, EVEN): (
        '94c27e4365a48bd1c8e2ffc52469c7f31ee111c43aefc24d8122943d938a66f5',
        'a5cf3dd13813343ec6d8a9c62216a0a16f9464d5bc45dc8b139d5f99309041e2'),
    (8, 2, 2, 2, 3, EVEN): (
        'fecc6dc1a8bedf047bae3c1d2aa147169ec7caeca522abbf85b38dc1a5b9bbee',
        '7368fdafa42e715ef54a775175c4037564afe30de1eed2952bea3f0487df6db1'),
    (8, 2, 2, 3, 1, EVEN): (
        'f43801c4903be431b878165895db3077e8072ed508d9c676fd34d027a5d366e7',
        '6051b3a435997d2ca124a05d7ac7583536403270223fb54643fb342a3500e1ea'),
    (8, 2, 2, 3, 2, EVEN): (
        'e9f22a8cb14a1c38a9ab20430743bd06870cdee364ba26e6267c27b8ce9c8f57',
        '3ba8d593d7e399d4c2861c7840b42553398712c18c82512f81757b8d6ff2e0f9'),
    (8, 2, 2, 3, 3, EVEN): (
        '2121e5d64e771389f0865c71105171521bc7e69ee9e615bbee34abb999a316bd',
        '1124c6b80b9802ee57380eca2b046d78c2d8aa502ca93584e8ad7a4796758683'),
    (8, 2, 3, 1, 1, EVEN): (
        'aa5b5e67cdf55ff5815f8a6fcf484f0179df1c70557974369c26fd2a19d74472',
        'c5c25bc472f4d679de0af35b26500dd06b5ed5448572e78e033c8d594854b1db'),
    (8, 2, 3, 1, 2, EVEN): (
        '4186d37f5ea55809ca20d6c8d3721d605c4b392ec00d5bda58fddc4f883d673a',
        '52502c01d0eab17d01e5a574ba11027823724614c22de3f9563a7b8d3e101c18'),
    (8, 2, 3, 1, 3, EVEN): (
        '7845087bda2b601b2f4aabd79d8749f38b2d693cc7cf52e3d61cdea2b610e14a',
        '69de36dbb6772d8f1a63903cf7e9452657d22007c37f8b27b4df5201b7feffd1'),
    (8, 2, 3, 2, 1, EVEN): (
        '0f4a454b3203c7e72c31051fe7d86e83c9ebc57fce17121c57fea83ae5281034',
        'ea061f13ec08cd77f756bc823fb1bde2c72e0278cd2fcd0cc10e57e563e52175'),
    (8, 2, 3, 2, 2, EVEN): (
        'b48bd8ad7b7cc29fe469a5e42d380dc5db57f8c367fecb183e5df7ee89c3776d',
        '548cb8fc71e200d24caf77e07a9ce8a667d951c66e8920ebf091cca310b267f9'),
    (8, 2, 3, 2, 3, EVEN): (
        'a9f7585bb4801e30b8cf0b47f94013df93430c400c0af0615e9513b039834634',
        '2c3fde7bb54951b569dda695013fc21a50a01f0da42f7225ef0552bc54f13d27'),
    (8, 2, 3, 3, 1, EVEN): (
        'ad050bf4966ff15f9419a619df3a3c024de95c3929095615728e7df180ed3f1e',
        '8c12b1d689b3ae6a35a34589d6be6d112c9a835b6ac0e580a9935a4969f1c1de'),
    (8, 2, 3, 3, 2, EVEN): (
        '040f374c0f469a251a2b808dd16fbd46f57b7f75c0d92413212d9278156433eb',
        '689e6601cf9e132c340aeadb9eeaa99d876be7e78a1a165cf52ea4019bc5a333'),
    (8, 2, 3, 3, 3, EVEN): (
        'b7d0526a82d63d59fd51f6793d99fdea7550c215b9a92127c7d0e98c5a622ce5',
        'f3f284a172d257fe593dc12300d6e14049548cd7bbd9680d06408a233be41806'),
    (256, 2, 1, 1, 1, EVEN): (
        '7c5eae130220deac769fc8d9d444b09cea89fdfaf819595d7241cec302f4561a',
        '3dc1a59e11b389e47faa7a58cf52fa655280dded997f67fdf7b434ea91d9e0c8'),
    (256, 2, 1, 1, 2, EVEN): (
        '1c55438c82483374a32144c96b8b2024d6c8c2465edd76410e5d6b40c6a9b03c',
        'f3a9a9088e0c04bbaaec8d394c14ebc42e5fff0e2fd2dd6b51310632dc45a5a8'),
    (256, 2, 1, 1, 3, EVEN): (
        '73e107866ab71ed609be9db7e7a96387dda7a77115b655f25464fff2ada8a4f1',
        'b4737a6fc46ced342c741bd754fc5c1832b5d37732a1a8c80e5d2d79d82a1771'),
    (256, 2, 1, 2, 1, EVEN): (
        '7bcf7abd4573810137ba79fc6c77df988e5d102d9dfe96a5a5f3370c955abd8b',
        'a100f6d31975890bd6b117eb94efcf102dfb0812cfc6b5614746c47893e1bc1e'),
    (256, 2, 1, 2, 2, EVEN): (
        'de3790f9d36a2d0362c29ce3e2b3367f7f635074a3ba56dd20f74d36f8baf6fb',
        '6c7a527952fe54355009c8f1076b6b10a25faa3b5aa1df270865e3bdca9b5f7c'),
    (256, 2, 1, 2, 3, EVEN): (
        '9f2a1a1f30837c67ba050f94af1992de9f8f5458aa4636411065395161dadc01',
        'a031fdc464a9cea10a5b722f43c9095225e5338be9546aa04be7243a9c98da16'),
    (256, 2, 1, 3, 1, EVEN): (
        '0473fe7ee9fb59ed0841a2069b52c651b39c238aa17f12b5bac9cc87ad4696b0',
        'db5d42a63df3078eda954d569406b0fdbc298a5389e6cc2f6c122ea43585d856'),
    (256, 2, 1, 3, 2, EVEN): (
        '85db4a951d3955ba1e99e454eed7006523a51c0d591b43fcfb95aa7678222939',
        'f51658b9249673aaa707190c24a90b301ee7369e99a8a017064bafe8e82f7165'),
    (256, 2, 1, 3, 3, EVEN): (
        '1cd3670c49fdb03be9a3c91b9dd9ff61e3af150c145aac07d8c1e869871a8091',
        'eabf57ca91524252abdce6e584836d46871d198e30524c1e95ac3b0998f0431d'),
    (256, 2, 2, 1, 1, EVEN): (
        '31c55afbbf03e6ab4665f60806dc8ab5c861071c0fa927e3760ad28ee6b68621',
        '824f2fe81c6e36c5a70f9f09b085e2b6bea74717486413b14369b6d06eb6ba7c'),
    (256, 2, 2, 1, 2, EVEN): (
        '2af83a55fc35b000c7c68b0cf8838f9c0309dd3a9191313d155fb6ade7cd308f',
        '35eccdf7544c6330575e0d119c0c73cdc42299b60f0b1578382e2993f2889f7f'),
    (256, 2, 2, 1, 3, EVEN): (
        '7be29c43481bb2f29bda07d82a29adac9bf4ef987ccc818fe3c4c5e0ccafcde6',
        '4739cee4b48166a69d3dd2a21f13d4138e45366b45cf35cf4faa21edc13cdd6e'),
    (256, 2, 2, 2, 1, EVEN): (
        'f8bd992b03cee2c65f0a335a4d93cad950fb884fa6b590e1b3144d595eed360d',
        '9a99560a7a33d411ee1255b6ad35a0e5041ea72805d89718ce05590aac975e0e'),
    (256, 2, 2, 2, 2, EVEN): (
        '47b7dc7ba98283873d44fc107743568f061eeb39a761c4d8048b443eb02d6479',
        'd27ae0f3e64c8c9531923a89d61552849a7a332ecc93b691c899e4c08e85089a'),
    (256, 2, 2, 2, 3, EVEN): (
        'b7fe642a4231aed7b646c268635c792f0292e1bfc168740801d48a5a90aebd1b',
        '72c5e14664a354b0fbb69dffd667ab852483a9ebcffb3eece93b6ec56408e112'),
    (256, 2, 2, 3, 1, EVEN): (
        'b51334981d6780633bc18d660cb204550335a66d16bd3dc72cf6fa616d815aee',
        'f4b4f7dbb3a2f2e2da15117277a385e6c2472341d3e6d80453a10a84da4b2459'),
    (256, 2, 2, 3, 2, EVEN): (
        '0013ba5a23a23df8cd8b06fab111b1779371a425637f77c961e0903347310081',
        'e443ad28714e6618ae01ebecc087879973e3b7ba59796133dcb435dfeb168e6e'),
    (256, 2, 2, 3, 3, EVEN): (
        '8a5c90a9310f343fba9f5a2ca8d0f8041e82fea708c245a19caf304bfe6c61f6',
        '2d5ed1b4e89e8da571cf574c0ad28b850b804f9d0a9bfde317b79e6859d621bc'),
    (256, 2, 3, 1, 1, EVEN): (
        '752e823c0e1bd394a56d8c3770074e7545489f15dd9e99d1de25572900cc3fdc',
        '18fdecf37777b9c1712c91a709e1a504189580a619779bb083c1a1cbf722ac47'),
    (256, 2, 3, 1, 2, EVEN): (
        'a0e133f8110d9bd231e8899a84927c87f99c092c87a7388c8f7f0bb1bac62e43',
        'f6be3d100743d4b4d54a8c859d2db636dad00e60310f0c715111c098949d89a6'),
    (256, 2, 3, 1, 3, EVEN): (
        'd7bf6e7cc2fc6eae9d2fd029cfad7bfafe7dc9e7dce3ba5d865515d903ebf9f3',
        'debbd2b51b2d5818f512902ff668b8bb64be4dc774d5b76660f907ac8d5c0c4d'),
    (256, 2, 3, 2, 1, EVEN): (
        '9fc94d0dba16cd700c7d9bf9b4b64d9b3709b0dbb6f49ef4e86807b92b0dd247',
        '23452f7f0b0cb64ded02a5f21c69456c03fdfea5303d2075e834eb251490395c'),
    (256, 2, 3, 2, 2, EVEN): (
        '19f7a6407928679edc213461963d2ccd9e05c3e2a6688f68f14c6e8f77ea01cf',
        'a92da8846ecf2e3a374e7df85923d16e2de60c6613499a4769f02b0c7039b681'),
    (256, 2, 3, 2, 3, EVEN): (
        '54361c5748505c327a4780b916e3078193c22a629d7dd725d434d67210f2b810',
        'acebf501e3050eca20c8984bfaa53267e1fa29b4e8a2ab2402f2a56aaaea756a'),
    (256, 2, 3, 3, 1, EVEN): (
        '26954796edabf84fb4199e67bf3bbff7630bf215fc31d748f176f1ae7bf8d3a1',
        '85a38b82ea9c7583918b1dd3e57fb00b31e3f5cd8d48ea017d384e5dd626257a'),
    (256, 2, 3, 3, 2, EVEN): (
        '2fe103d89b8179ab07c321fbc7b530ce1f974f9d8dcf7e1db393313b3ad13300',
        '27b5c2fbbf5861721c46b747825bff314c9b7a9d883953b6850ea10c6cc48066'),
    (256, 2, 3, 3, 3, EVEN): (
        'cab6e0486a6c34363cd0d386038ffb1876d9f32b2b1c5e760dc1506bf1deb898',
        'b83c35f27e940439896ceb4cc350d1c5630dd0d78405f2b468e0ec6e7873adbb'),
    (1 << 40, 1, 1, 1, 1, EVEN): (
        'eeeb05b72ff7ed67f87d8fbff7783b93cffe72885d84caae17203c7beff6abcb',
        '3c739ad21928484c7fb30d9b2853872c7f12db71a0b12f76cae4eaa81f44bc54'),
    (1 << 40, 1, 1, 1, 2, EVEN): (
        'c3e2537665b648dc53bd84f8ca88803fc9dc91186d4a9e3544fec61635035b90',
        '2ce7623df7aaeb65f309b2333f7781b6546f43c18f03d64fc54080f23a98bbec'),
    (1 << 40, 1, 1, 1, 3, EVEN): (
        '1673665f9aaca44db771edf4f8e22c88595267212f9ba0ef3d9765d59c86fa9b',
        'a11e194f8b512cf0eb1fb158f87c547c2a438851290cf5c20ad3b270a1306c63'),
    (1 << 40, 1, 1, 2, 1, EVEN): (
        '381da893c25aec1d2e30f5e8557a8cb68aa24eb654f8af7ab599fda4e562853b',
        '23425ac96b55dbc609cf4c6c806f3c237e5b15f25115995cb27e474d8ef4b1f4'),
    (1 << 40, 1, 1, 2, 2, EVEN): (
        '94353fbaf00c014fb984aaa74b07fb47653ebe3a955182dcdd134cee9f28f743',
        'e17473c027cbbf64ef01f1a085a2ac03be8998fbf7caba92a31a2f5ccb060823'),
    (1 << 40, 1, 1, 2, 3, EVEN): (
        '2d7352f8c0439baaf6e606b5dcd334704462d94556b9335905dcbb4db5cce84c',
        'f601aa670b826c52f2e4fc7aacb5760db1b80ad97644fff1fa4d116256bf86a0'),
    (1 << 40, 1, 1, 3, 1, EVEN): (
        '59283331d48577603a460f66023477da7a7feffa3a03f4aaeb0af15423177f94',
        '480dbfb943e3272ace2767c039911b759c57361357dd50ef9a20a8971aacad18'),
    (1 << 40, 1, 1, 3, 2, EVEN): (
        '123f21b65e8969f688d6405c15afc3b20601fdc5595316e9effd6385b9f38e45',
        '4c31915d66e5ecec6e6141b0c1a44dad9d84933ad159cb4030da10674f586138'),
    (1 << 40, 1, 1, 3, 3, EVEN): (
        '6487689e952a11b04db2d6a6324694a39a8195d13cff0a2d23b401c9049f2a01',
        'a8571b84dd4439f748e335d8e124f2efb12b420dcb7e338bfe6be8b626e89b85'),
    (1 << 40, 1, 2, 1, 1, EVEN): (
        '78c7432714e678e2b3bd5c07efc99e1b83860c98e34eeea100be56166d5738fb',
        'b66c83662cfc16a13cf3e747f6e50a5087436130359be42b5a6a40aa3373e617'),
    (1 << 40, 1, 2, 1, 2, EVEN): (
        'f74fc89a8a5d419abd9606a4224e18d75601084d1dc19b0e0850d5ab727ab931',
        '318395e79a9432be3550dd706e4479fdc29f941b613406719b86780a1ea7c4c6'),
    (1 << 40, 1, 2, 1, 3, EVEN): (
        '13bcf8ed2f3b1dcd9d65ba3cb7e01c7c00e8f3ebc24c42bd20352643556cdb83',
        '4ed865b1adbded6ac63b906f4d8af8205da29a557b19834ad3d29a1f2e864eed'),
    (1 << 40, 1, 2, 2, 1, EVEN): (
        'c2fa8134e10969bd2f266591f6a664e0dc49142ab1f517d2373b2d157ed9bcb6',
        '739ba484b2389656e97bee24216879c333cb701868550fd22af4f9ffe36abfbb'),
    (1 << 40, 1, 2, 2, 2, EVEN): (
        '63281079efd1508ad89852dab7a2fb806f4ec1dacc88322183826b24ec4d4f93',
        'a52a4020c3959ae60c3d4d85c08a90853486fe35a6db326e66ceec88e9f41795'),
    (1 << 40, 1, 2, 2, 3, EVEN): (
        '952d2be4714c02190e9d90f01414b2b29dce4f0c7c9423e2ae8e040be57a696c',
        '411606c1c13a693ee66ab53728064ed3e4ed113067c82b37a39bf82715d08ff3'),
    (1 << 40, 1, 2, 3, 1, EVEN): (
        '105c572b294c24f9424908635782728d8320ff14efd1dfe2e67e2ee75bd256ff',
        'ae353b82b2ec6e6913be57eb029266b2058eab82a30a16225832e79aeb6500c6'),
    (1 << 40, 1, 2, 3, 2, EVEN): (
        '865f933ba562b5a8caa141dd7986858b3756410b5fd8cfdbd6d05c9100ae2df0',
        '528e48f87dbb516b6402da4881f5546b385e41d755bf6e484a007f978949d085'),
    (1 << 40, 1, 2, 3, 3, EVEN): (
        '00d62a83cc27681d486705b9a870da6952840782b8924473e04ab1a386951a07',
        '5ec9c2efc46f17a211fa2c1e7b0d9906a9e4fb205ba64285ac8698c5c9e98722'),
    (1 << 40, 1, 3, 1, 1, EVEN): (
        '78029da3c5cac920a0c431884b8267d89ce202e40d9ab0ae282496d7c73ede07',
        '2f54a1a8706caa9da1a122ebb88928c7fbf06d0ed79287e8609c33b19b8f26af'),
    (1 << 40, 1, 3, 1, 2, EVEN): (
        'abba557c039a2e428f2e0f7a7d8b8a86ecec68f26304da52d896fe59bc230357',
        'e2822d48ae21544f630673b1621c91316b3d8813868778c7fe66a48dc057c825'),
    (1 << 40, 1, 3, 1, 3, EVEN): (
        '5d8eab175d1727769eba347fc481ada78645ea1c79367ed1b4682095fec1333a',
        '34767f15615c625701185d55d7d48e6b181e317074daca1e37ce278097cba925'),
    (1 << 40, 1, 3, 2, 1, EVEN): (
        '2abd60ba6b019036caf84afd3550aa4dd0b26d844a0b76b8cc9d426a6f45465c',
        '7a06e29aa0e8a15e1f8f33874f33fc7aea063a81027839ee84a50a4773b5c083'),
    (1 << 40, 1, 3, 2, 2, EVEN): (
        '8d77a95f047cef75830896c5d5fb64bd24a60f2fc1ce2a4aef9d6e6d067c7b33',
        '72306ef471582c96042e472475105d1cbb0dba0f745a348fd401f913a731c59c'),
    (1 << 40, 1, 3, 2, 3, EVEN): (
        'e42f9c110b6622832c6b79332f73a2db11b737a26ded22da37962c9dcb2aec3a',
        'd56ff981fabf64e817612d92e18313e23781883e55becf23befb08b3ce5ca332'),
    (1 << 40, 1, 3, 3, 1, EVEN): (
        '45fb041c864fb4ac67f6701d0f2ae46354c7c182e4df32c6be967512bcc4b0e9',
        'af9738a5557d522decfdef483267f1c78438eef919fea2d2650f28d9a62b0ce3'),
    (1 << 40, 1, 3, 3, 2, EVEN): (
        '55e45b677e42698e768ca04f042d012ea16574b3f9273a250108a4025d81c86c',
        '785b239b5bc53d90374e44d4b82647138bd3ad15a792cefc6a9ccc134709904a'),
    (1 << 40, 1, 3, 3, 3, EVEN): (
        '20386b03e5d8254edb031f6b1fc576f1bb044149e7bdae8416fdedd182ff03ce',
        '41332bd4e8de11fb0addf7f86777fc3c9f9332699d84b27bb4b520940420d1b5'),
    (256, 2, 1, 3, 1, UNEVEN): (
        'a073fdb1596907095c03b9add32385fc7fd5219ae685b6a7af92e3a2a97da022',
        '59524f53aef855c65f4991eaa96a12910da2c9688258b246b8afd8c7e886b7d9'),
    (256, 2, 2, 3, 1, UNEVEN): (
        'e4306033b2c336621908126b0a55985f9e097f9efd732b524b775292bd42579d',
        '188da69c15f426b0b00940ddcfe20b85c39f0b940127ede50123d47318b8f8f8'),
    (256, 2, 3, 3, 1, UNEVEN): (
        '8f7ae42e291f0d6c9217fb52d68fcdaae85df7423c21244528395b04a29d7163',
        'e390d78a52a33d98ee6dfd79e409f7388a9d80884a3c7d38c40e1b4d3264c555'),
}


def _assign_digests(Delta, d, r, k, seed, shares):
    """Build a coreset of 45 points in three clusters (of the given shares
    of n, with tags 0..44) through the CLI, then assign it to the first k
    cluster means at capacity ceil(1.1 n / k), alone and with a full input
    of the 45 points and 6 uniform ones (which may fall outside every
    kept part); runs in the current directory, so the files' header lines
    name relative paths."""
    rng = random.Random(f"golden-assign:{Delta}:{d}:{seed}")
    n = 45
    means = [tuple(rng.randint(1, Delta) for _ in range(d)) for _ in shares]
    spread = max(0.5, Delta / 16)
    sizes = [round(share * n) for share in shares]
    sizes[0] += n - sum(sizes)
    coords = [tuple(min(Delta, max(1, round(rng.gauss(m, spread))))
                    for m in mean)
              for mean, size in zip(means, sizes) for _ in range(size)]
    coords += [tuple(rng.randint(1, Delta) for _ in range(d))
               for _ in range(6)]
    pts = [Point(c, tag) for tag, c in enumerate(coords)]
    write_points("pts.txt", pts[:n])
    write_points("full.txt", pts)
    write_points("centers.txt", [Point(m) for m in means[:k]])
    assert main(["build", "--input", "pts.txt", "--output", "core.txt",
                 "-k", str(k), "-r", str(r), "--Delta", str(Delta),
                 "--d", str(d), "--seed", str(seed)]) == 0
    capacity = str(math.ceil(1.1 * n / k))
    digests = []
    for name, extra in (("assign.txt", []),
                        ("assign_full.txt", ["--full-input", "full.txt"])):
        assert main(["assign", "--coreset", "core.txt", "--centers",
                     "centers.txt", "--capacity", capacity, "--out", name,
                     *extra]) == 0
        with open(name, "rb") as fh:
            digests.append(hashlib.sha256(fh.read()).hexdigest())
    return tuple(digests)


def _assign_id(case):
    Delta, d, r, k, seed, shares = case
    return f"Delta{Delta}-d{d}-r{r}-k{k}-seed{seed}-" + \
        ("even" if shares == EVEN else "uneven")


@pytest.mark.parametrize("case", sorted(ASSIGNS), ids=_assign_id)
def test_assign_files_match_their_golden_digest(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _assign_digests(*case) == ASSIGNS[case]


# (Delta, k, r, params mode, exact counts, t grid, rounded) -> sha256 of the
# eval CSV (_eval_digest)
UNIT = "practical:1e-6"
EVALS = {
    (8, 2, 1, UNIT, False, 'full', False):
        'af814ace8204a0f8c8f166aa3f9445d0a2a384ca73e50a2115107bd6abcb801b',
    (8, 2, 2, UNIT, False, 'full', False):
        '212f40d00ab242bf167ed79d2eeae3c068cc66c4139a65d8e95b9077fb4ec162',
    (8, 2, 3, UNIT, False, 'full', False):
        '1d2013e225c22cad48117df7a6f12802da7c846ede54ed7ab43b1ad34a41d2f5',
    (8, 3, 1, UNIT, False, 'full', False):
        '31148df736dcde3c519f574601e7a110cd886c1008a5619f0fcb27ed346927be',
    (8, 3, 2, UNIT, False, 'full', False):
        '2953dac26efca49dd94e69a185dc91cef89c703e1499dbaf65a3674b43c8cc50',
    (8, 3, 3, UNIT, False, 'full', False):
        '51d079075c29c24f65e700005b444db20e568cbeb9a31bdc4a0da171b4961f3a',
    (8, 4, 1, UNIT, False, 'full', False):
        'e265e40542a60b514401113e844233a416985c520bdbfbbd6db32cdfd08e5a00',
    (8, 4, 2, UNIT, False, 'full', False):
        '9534cea1ae7577d94132944a5a850ce175badb8b8bb364fc894e3516fbd2ad91',
    (8, 4, 3, UNIT, False, 'full', False):
        '7b18fe40fc24073a8962f767cdac090a6d965419fa7b8a0390ef4099f49efc1b',
    (8, 3, 2, UNIT, False, 'auto', True):
        'e359682cbd353b85e600a3d9349bd37f213b4f493b4c054b37748aa08c2a4579',
    (256, 3, 3, UNIT, False, 'auto', False):
        '6c341ac73f1dc8514ae59223f3695a254e62b005db5cfb65892175a6929fccaa',
    (256, 4, 2, UNIT, False, 'full', True):
        'c38aa4ba67bb8490e05331c4fa39d2a0db0f9da906f163705f79a8529044cb1c',
    (8, 2, 2, 'practical:1e-57', True, 'auto', False):
        '4efa0cd231b40e85bbf0be847abc95ef7c7fcce1040ca9d2c0e11f9d084fe31f',
    (8, 2, 2, 'practical:1e-57', True, 'full', True):
        '7c01cc995478b17d40b660a3aa528095c7cf6bc0cc3e9b7f70a9184e58f7db06',
    (8, 4, 2, 'practical:1e-60', True, 'full', True):
        'aaa3237b4316bbd92476552d475f63537415cfef89c477a5fef784d36219f75d',

}


def _eval_digest(Delta, k, r, params_mode, exact_counts, t_grid, rounded):
    """Generate 40 points (three clusters, coordinates repeated under
    distinct tags), build a coreset through the CLI and audit it at four
    center sets; runs in the current directory, so the CSV's header lines
    name relative paths."""
    assert main(["gen", "--out", "pts.txt", "--n", "40", "--Delta",
                 str(Delta), "--spread", str(Delta / 8), "--seed", "1"]) == 0
    assert main(["build", "--input", "pts.txt", "--output", "core.txt",
                 "-k", str(k), "-r", str(r), "--Delta", str(Delta),
                 "--params-mode", params_mode, "--seed", "1",
                 *(["--exact-counts"] if exact_counts else [])]) == 0
    assert main(["eval", "--input", "pts.txt", "--coreset", "core.txt",
                 "--out", "eval.csv", "--center-samples", "4",
                 "--t-grid", t_grid, "--seed", "1",
                 *(["--include-rounded"] if rounded else [])]) == 0
    with open("eval.csv", "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _eval_id(case):
    Delta, k, r, params_mode, exact_counts, t_grid, rounded = case
    return f"Delta{Delta}-k{k}-r{r}-{params_mode.split(':')[1]}" + \
        ("-exact" if exact_counts else "") + f"-{t_grid}" + \
        ("-rounded" if rounded else "")


@pytest.mark.parametrize("case", sorted(EVALS), ids=_eval_id)
def test_eval_files_match_their_golden_digest(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _eval_digest(*case) == EVALS[case]


def _sum_312(iterable, start=0):
    """builtin sum as CPython 3.12 takes it: exact ints up to the first
    float, then Neumaier's compensated summation over the floats (ints
    after that are added uncompensated)."""
    items = iter(iterable)
    total = start
    for x in items:
        total += x
        if type(total) is float:
            break
    else:
        return total
    comp = 0.0
    for x in items:
        if type(x) is float:
            t = total + x
            if abs(total) >= abs(x):
                comp += (total - t) + x
            else:
                comp += (x - t) + total
            total = t
        else:
            total += x
    return total + comp if comp and math.isfinite(comp) else total


# r = 1 and r = 3 cases, whose float sums a compensated sum would change
ODD_R = [("eval", case) for case in sorted(EVALS) if case[2] != 2] + \
    [("assign", case) for case in sorted(ASSIGNS) if case[2] != 2]


@pytest.mark.parametrize(
    "kind,case", ODD_R,
    ids=[f"{kind}-{(_eval_id if kind == 'eval' else _assign_id)(case)}"
         for kind, case in ODD_R])
def test_digests_hold_under_a_compensated_sum(kind, case, tmp_path,
                                              monkeypatch):
    """The oracle and the assignment sum floats left to right themselves,
    so Python 3.12's compensated builtin sum leaves every digest as it is."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(oracle, "sum", _sum_312, raising=False)
    monkeypatch.setattr(assignment, "sum", _sum_312, raising=False)
    if kind == "eval":
        assert _eval_digest(*case) == EVALS[case]
    else:
        assert _assign_digests(*case) == ASSIGNS[case]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_total_weight_holds_under_a_compensated_sum(seed, monkeypatch):
    """WeightedCoreset.total_weight sums its weights left to right itself,
    so Python 3.12's compensated builtin sum leaves it as it is: at scale
    1e-57 with exact counts the weights are not integers, and the two
    sums differ."""
    pts = _points(seed, 40)
    grid = GridHierarchy.from_seed(derive_seed(seed, "shift"), DELTA, 2)
    core = build_auto(pts, grid, _params(1e-57), seed, exact_counts=True)
    weights = [w for _, w, _, _ in core.entries]
    left = 0.0
    for w in weights:
        left += w
    assert _sum_312(weights) != left
    monkeypatch.setattr(coreset, "sum", _sum_312, raising=False)
    assert core.total_weight() == left
