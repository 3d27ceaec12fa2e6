"""The hospital knowledge base -- the paper's running example.

``HOSPITAL_CDL`` collects every class the paper defines for the hospital
domain (Sections 1, 3, 4.1, 5.1, 5.6) in the CDL surface syntax:

* the base hierarchy (Address, Person, Hospital, Employee, Physician,
  Oncologist, Psychologist, Patient, Cancer_Patient);
* ``Alcoholic`` with the ``treatedBy`` excuse;
* ``Ambulatory_Patient`` with the inapplicable ``ward``;
* ``Tubercular_Patient`` with the nested Swiss-hospital excuses;
* ``Renal_Failure_Patient`` / ``Hemorrhaging_Patient`` with the
  blood-pressure adjudication excuse.

``populate_hospital`` builds a seeded synthetic population that exercises
every exceptional path -- the paper has no dataset (1988 conceptual
paper), so this generator is the substitute workload used by the
benchmarks (see DESIGN.md section 2).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional

from repro.lang.loader import load_schema
from repro.objects.store import CheckMode, ObjectStore
from repro.schema.schema import Schema
from repro.typesys.values import EnumSymbol

HOSPITAL_CDL = """
-- The hospital knowledge base of Borgida (SIGMOD 1988).

class Address with
  street: String;
  city: String;
  state: {'AL, 'CA, 'NJ, 'NY, 'WV};
end

class Person with
  name: String;
  age: 1..120;
  home: Address;
end

class Hospital with
  location: Address;
  accreditation: {'Local, 'State, 'Federal};
end

class Employee is-a Person with
  age: 16..65;
  supervisor: Employee;
  office: Address;
end

class Physician is-a Person with
  affiliatedWith: Hospital;
  specialty: {'General, 'Oncology, 'Cardiology, 'Pulmonology};
end

class Oncologist is-a Physician with
  specialty: {'Oncology};
end

class Psychologist is-a Person with
  therapyStyle: {'CBT, 'Psychodynamic, 'Humanistic};
end

class Ward with
  floor: 1..40;
  name: String;
end

class Patient is-a Person with
  treatedBy: Physician;
  treatedAt: Hospital;
  ward: Ward;
  bloodPressure: {'Normal_BP, 'High_BP, 'Low_BP};
end

class Cancer_Patient is-a Patient with
  treatedBy: Oncologist;
  chemoTherapy: String;
end

class Alcoholic is-a Patient with
  treatedBy: Psychologist excuses treatedBy on Patient;
end

class Ambulatory_Patient is-a Patient with
  ward: None excuses ward on Patient;
end

class Tubercular_Patient is-a Patient with
  treatedAt: Hospital
    [accreditation: None excuses accreditation on Hospital;
     location: Address
       [state: None excuses state on Address;
        country: {'Switzerland}]];
end

class Renal_Failure_Patient is-a Patient with
  bloodPressure: {'High_BP};
end

class Hemorrhaging_Patient is-a Patient with
  bloodPressure: {'Low_BP}
    excuses bloodPressure on Renal_Failure_Patient;
end
"""


def build_hospital_schema() -> Schema:
    """Parse and validate the full hospital schema."""
    return load_schema(HOSPITAL_CDL)


@dataclass
class HospitalPopulation:
    """Handles into a generated population."""

    store: ObjectStore
    addresses: List = field(default_factory=list)
    hospitals: List = field(default_factory=list)
    physicians: List = field(default_factory=list)
    psychologists: List = field(default_factory=list)
    patients: List = field(default_factory=list)
    alcoholics: List = field(default_factory=list)
    ambulatory: List = field(default_factory=list)
    tubercular: List = field(default_factory=list)
    cancer: List = field(default_factory=list)


_STATES = ("AL", "CA", "NJ", "NY", "WV")
_STYLES = ("CBT", "Psychodynamic", "Humanistic")


def populate_hospital(schema: Optional[Schema] = None,
                      n_patients: int = 100,
                      alcoholic_fraction: float = 0.1,
                      tubercular_fraction: float = 0.05,
                      ambulatory_fraction: float = 0.1,
                      cancer_fraction: float = 0.1,
                      n_hospitals: int = 5,
                      n_physicians: int = 10,
                      seed: int = 1988) -> HospitalPopulation:
    """A seeded synthetic population exercising every exceptional path.

    Fractions are of ``n_patients``; they are carved out of the population
    in the order tubercular, alcoholic, ambulatory, cancer, remainder
    plain patients.  Loading is done with eager conformance checking
    except for the Swiss structures, which become conformant the moment
    they are anchored by a tubercular patient (and are validated then).
    """
    if schema is None:
        schema = build_hospital_schema()
    rng = random.Random(seed)
    store = ObjectStore(schema)
    pop = HospitalPopulation(store=store)

    for i in range(max(n_hospitals, 1)):
        addr = store.create(
            "Address", street=f"{i + 1} Main St",
            city=f"City{i}", state=EnumSymbol(rng.choice(_STATES)))
        pop.addresses.append(addr)
        hosp = store.create(
            "Hospital", location=addr,
            accreditation=EnumSymbol(
                rng.choice(("Local", "State", "Federal"))))
        pop.hospitals.append(hosp)

    wards = [
        store.create("Ward", floor=rng.randint(1, 40), name=f"W{i}")
        for i in range(max(n_hospitals, 1))
    ]

    for i in range(max(n_physicians, 1)):
        doc = store.create(
            "Physician", name=f"Dr. D{i}", age=rng.randint(30, 65),
            affiliatedWith=rng.choice(pop.hospitals),
            specialty=EnumSymbol("General"))
        pop.physicians.append(doc)
    oncologists = [
        store.create("Oncologist", name=f"Dr. O{i}",
                     age=rng.randint(35, 65),
                     affiliatedWith=rng.choice(pop.hospitals),
                     specialty=EnumSymbol("Oncology"))
        for i in range(max(n_physicians // 3, 1))
    ]
    for i in range(max(n_physicians // 2, 1)):
        psy = store.create(
            "Psychologist", name=f"Dr. P{i}", age=rng.randint(28, 70),
            therapyStyle=EnumSymbol(rng.choice(_STYLES)))
        pop.psychologists.append(psy)

    n_tb = int(n_patients * tubercular_fraction)
    n_alc = int(n_patients * alcoholic_fraction)
    n_amb = int(n_patients * ambulatory_fraction)
    n_cancer = int(n_patients * cancer_fraction)

    counter = 0

    def base_kwargs():
        nonlocal counter
        counter += 1
        return {
            "name": f"Patient{counter}",
            "age": rng.randint(1, 99),
            "bloodPressure": EnumSymbol("Normal_BP"),
        }

    # Swiss hospitals for the tubercular patients.
    swiss_hospitals = []
    for i in range(max(min(n_tb, 3), 1) if n_tb else 0):
        sa = store.create("Address", check=CheckMode.NONE,
                          street=f"Bergweg {i + 1}", city="Zurich")
        store.set_value(sa, "country", EnumSymbol("Switzerland"),
                        check=CheckMode.NONE)
        sh = store.create("Hospital", check=CheckMode.NONE, location=sa)
        swiss_hospitals.append(sh)

    for i in range(n_tb):
        patient = store.create("Tubercular_Patient",
                               treatedBy=rng.choice(pop.physicians),
                               ward=rng.choice(wards), **base_kwargs())
        # Round-robin so every Swiss hospital is anchored by at least one
        # patient (an unanchored one would be a plain Hospital with an
        # inapplicable `country`, i.e. nonconformant residue).
        store.set_value(patient, "treatedAt",
                        swiss_hospitals[i % len(swiss_hospitals)])
        pop.tubercular.append(patient)
        pop.patients.append(patient)

    for _ in range(n_alc):
        patient = store.create("Alcoholic",
                               treatedBy=rng.choice(pop.psychologists),
                               treatedAt=rng.choice(pop.hospitals),
                               ward=rng.choice(wards), **base_kwargs())
        pop.alcoholics.append(patient)
        pop.patients.append(patient)

    for _ in range(n_amb):
        patient = store.create("Ambulatory_Patient",
                               treatedBy=rng.choice(pop.physicians),
                               treatedAt=rng.choice(pop.hospitals),
                               **base_kwargs())
        pop.ambulatory.append(patient)
        pop.patients.append(patient)

    for _ in range(n_cancer):
        patient = store.create("Cancer_Patient",
                               treatedBy=rng.choice(oncologists),
                               treatedAt=rng.choice(pop.hospitals),
                               ward=rng.choice(wards),
                               chemoTherapy="cisplatin", **base_kwargs())
        pop.cancer.append(patient)
        pop.patients.append(patient)

    while len(pop.patients) < n_patients:
        patient = store.create("Patient",
                               treatedBy=rng.choice(pop.physicians),
                               treatedAt=rng.choice(pop.hospitals),
                               ward=rng.choice(wards), **base_kwargs())
        pop.patients.append(patient)

    return pop
